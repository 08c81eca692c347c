/**
 * @file
 * Persistent array-solution record store.
 */

#include "array/disk_cache.hh"

#include <chrono>
#include <filesystem>
#include <iostream>

#include "common/event_log.hh"
#include "common/serialize.hh"

namespace mcpat {
namespace array {

using common::ByteReader;
using common::ByteWriter;

namespace {

/**
 * Remove stale `.tmp.*` droppings left by writers that crashed between
 * creating their temp file and renaming it into place.  Only files
 * older than a grace period are removed, so a concurrent writer's
 * in-flight temp file is never yanked out from under it.  All errors
 * are ignored: this is opportunistic hygiene, not correctness.
 */
void
sweepStaleTempFiles(const std::string &dir)
{
    namespace fs = std::filesystem;
    constexpr auto kGrace = std::chrono::minutes(15);
    std::error_code ec;
    fs::directory_iterator it(dir, ec), end;
    if (ec)
        return;
    const auto now = fs::file_time_type::clock::now();
    for (; it != end; it.increment(ec)) {
        if (ec)
            return;
        const fs::path &p = it->path();
        if (p.filename().string().rfind(".tmp.", 0) != 0)
            continue;
        const auto mtime = fs::last_write_time(p, ec);
        if (ec) {
            ec.clear();
            continue;
        }
        if (now - mtime > kGrace)
            fs::remove(p, ec);
    }
}

} // namespace

ArrayDiskCache::ArrayDiskCache(std::string directory)
    : _dir(std::move(directory))
{
    // Opening an existing cache is the natural moment to clear debris
    // from crashed writers; a directory that does not exist yet has
    // nothing to sweep.
    std::error_code ec;
    if (std::filesystem::is_directory(_dir, ec))
        sweepStaleTempFiles(_dir);
}

std::vector<std::uint8_t>
ArrayDiskCache::serializeKey(const ArrayCacheKey &k)
{
    // Every field is bound by name, so a field added to any of the
    // three key structs stops this from compiling until the record
    // layout (and kFormatVersion) says how to store it.  The display
    // name and the requested flavor are cleared in every key.
    const auto &[name, sizeBytes, blockWidthBits, rows, bits, cellType,
                 readWritePorts, readPorts, writePorts, searchPorts,
                 banks, targetCycleTime, requestedFlavor] = k.params;
    const auto &[nodeNm, flavor, vdd, temperature, projection] = k.op;
    const auto &[wDelay, wDynamic, wLeakage, wArea, wCycle,
                 wMaxAreaRatio] = k.weights;
    ByteWriter w;
    // Canonical ArrayParams.
    w.putF64(sizeBytes);
    w.putI32(blockWidthBits);
    w.putI32(rows);
    w.putI32(bits);
    w.putI32(static_cast<int>(cellType));
    w.putI32(readWritePorts);
    w.putI32(readPorts);
    w.putI32(writePorts);
    w.putI32(searchPorts);
    w.putI32(banks);
    w.putF64(targetCycleTime);
    // Technology operating point.
    w.putI32(nodeNm);
    w.putI32(static_cast<int>(flavor));
    w.putF64(vdd);
    w.putF64(temperature);
    w.putI32(static_cast<int>(projection));
    // Optimizer objective.
    w.putF64(wDelay);
    w.putF64(wDynamic);
    w.putF64(wLeakage);
    w.putF64(wArea);
    w.putF64(wCycle);
    w.putF64(wMaxAreaRatio);
    return w.bytes();
}

std::string
ArrayDiskCache::recordPath(const ArrayCacheKey &key) const
{
    return _dir + "/" + common::toHex64(common::fnv1a64(serializeKey(key))) +
           ".arr";
}

std::vector<std::uint8_t>
ArrayDiskCache::serializeRecord(const std::vector<std::uint8_t> &key_bytes,
                                const CachedArraySolution &sol)
{
    ByteWriter w;
    w.putU32(kMagic);
    w.putU32(kFormatVersion);
    w.putU32(static_cast<std::uint32_t>(key_bytes.size()));
    for (std::uint8_t b : key_bytes)
        w.putU8(b);

    const ArrayResult &r = sol.result;
    w.putI32(r.org.ndwl);
    w.putI32(r.org.ndbl);
    w.putF64(r.org.nspd);
    w.putF64(r.area);
    w.putF64(r.accessDelay);
    w.putF64(r.cycleTime);
    w.putF64(r.readEnergy);
    w.putF64(r.writeEnergy);
    w.putF64(r.searchEnergy);
    w.putF64(r.subthresholdLeakage);
    w.putF64(r.gateLeakage);
    w.putF64(r.refreshPower);
    w.putF64(r.height);
    w.putF64(r.width);
    w.putU8(sol.meetsTiming ? 1 : 0);

    // Trailing checksum over everything serialized so far.
    const std::uint64_t checksum = common::fnv1a64(w.bytes());
    w.putU64(checksum);
    return w.bytes();
}

std::optional<CachedArraySolution>
ArrayDiskCache::load(const ArrayCacheKey &key, bool &corrupt) const
{
    corrupt = false;
    std::vector<std::uint8_t> bytes;
    if (!common::readFileBytes(recordPath(key), bytes))
        return std::nullopt;  // plain miss: no record on disk

    // Everything from here on is validation: any failure marks the
    // record corrupt (or aliased by a hash collision) and reads as a
    // miss so the caller re-solves and overwrites it.
    if (bytes.size() < sizeof(std::uint64_t)) {
        corrupt = true;
        return std::nullopt;
    }
    const std::size_t body_size = bytes.size() - sizeof(std::uint64_t);
    ByteReader tail(bytes.data() + body_size, sizeof(std::uint64_t));
    if (tail.getU64() != common::fnv1a64(bytes.data(), body_size)) {
        corrupt = true;
        return std::nullopt;
    }

    ByteReader r(bytes.data(), body_size);
    if (r.getU32() != kMagic || r.getU32() != kFormatVersion) {
        corrupt = true;
        return std::nullopt;
    }

    const std::vector<std::uint8_t> key_bytes = serializeKey(key);
    const std::uint32_t stored_key_size = r.getU32();
    if (stored_key_size != key_bytes.size() ||
        r.remaining() < stored_key_size) {
        corrupt = true;
        return std::nullopt;
    }
    for (std::uint32_t i = 0; i < stored_key_size; ++i) {
        if (r.getU8() != key_bytes[i]) {
            // A different key hashed to this record name: treat the
            // collision as a miss rather than aliasing the entry.
            corrupt = true;
            return std::nullopt;
        }
    }

    CachedArraySolution sol;
    ArrayResult &res = sol.result;
    res.org.ndwl = r.getI32();
    res.org.ndbl = r.getI32();
    res.org.nspd = r.getF64();
    res.area = r.getF64();
    res.accessDelay = r.getF64();
    res.cycleTime = r.getF64();
    res.readEnergy = r.getF64();
    res.writeEnergy = r.getF64();
    res.searchEnergy = r.getF64();
    res.subthresholdLeakage = r.getF64();
    res.gateLeakage = r.getF64();
    res.refreshPower = r.getF64();
    res.height = r.getF64();
    res.width = r.getF64();
    sol.meetsTiming = r.getU8() != 0;
    if (!r.ok() || r.remaining() != 0) {
        corrupt = true;
        return std::nullopt;
    }
    return sol;
}

bool
ArrayDiskCache::store(const ArrayCacheKey &key,
                      const CachedArraySolution &sol)
{
    namespace fs = std::filesystem;
    if (!_dirReady) {
        std::error_code ec;
        fs::create_directories(_dir, ec);
        // create_directories reports failure for an existing *file* at
        // the path; double-check with is_directory so a pre-existing
        // directory (or a racing creator) counts as success.
        _dirReady = fs::is_directory(_dir, ec);
    }
    const bool ok =
        _dirReady &&
        common::writeFileAtomic(recordPath(key),
                                serializeRecord(serializeKey(key), sol));
    if (!ok && !_warnedWriteFailure) {
        _warnedWriteFailure = true;
        std::cerr << "mcpat: warning: cannot write array cache record "
                     "under '" << _dir
                  << "'; continuing without persistence\n";
        if (elog::enabled(elog::Level::Warn)) {
            elog::emit(elog::Level::Warn, "array.disk_cache",
                       "write_failed",
                       "cannot write array cache record; continuing "
                       "without persistence",
                       {elog::Field::str("dir", _dir),
                        elog::Field::str("path", recordPath(key))});
        }
    }
    return ok;
}

} // namespace array
} // namespace mcpat
