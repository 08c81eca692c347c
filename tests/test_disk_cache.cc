/**
 * @file
 * Persistent array-cache tests: serialization primitives, record
 * round-trips, and the robustness contract — truncated records, wrong
 * version bytes, hash collisions on the key prefix, and unusable cache
 * directories must all degrade to misses, never crash or corrupt
 * results.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <string>
#include <vector>

#include "array/array_cache.hh"
#include "array/array_model.hh"
#include "array/disk_cache.hh"
#include "common/serialize.hh"

using namespace mcpat;
namespace fs = std::filesystem;

namespace {

/** A fresh per-test scratch directory under the system temp dir. */
fs::path
scratchDir(const std::string &tag)
{
    static int counter = 0;
    const fs::path dir = fs::temp_directory_path() /
        ("mcpat_test_" + tag + "_" + std::to_string(::getpid()) + "_" +
         std::to_string(counter++));
    fs::remove_all(dir);
    return dir;
}

/** RAII guard: point the cache at a disk dir, restore + clean after. */
struct DiskCacheGuard
{
    explicit DiskCacheGuard(const fs::path &d) : dir(d)
    {
        auto &cache = array::ArrayResultCache::instance();
        cache.clear();
        cache.setEnabled(true);
        cache.setCacheDir(dir.string());
    }
    ~DiskCacheGuard()
    {
        auto &cache = array::ArrayResultCache::instance();
        cache.setCacheDir("");
        cache.clear();
        fs::remove_all(dir);
    }
    fs::path dir;
};

array::ArrayCacheKey
sampleKey()
{
    const tech::Technology t(45);
    array::ArrayParams p;
    p.name = "disk cache sample";
    p.sizeBytes = 32.0 * 1024;
    p.blockWidthBits = 128;
    p.banks = 2;
    return array::ArrayResultCache::makeKey(p, t, {});
}

array::CachedArraySolution
sampleSolution()
{
    array::CachedArraySolution sol;
    sol.result.org = {4, 2, 0.5};
    sol.result.area = 1.25e-7;
    sol.result.accessDelay = 3.5e-10;
    sol.result.cycleTime = 4.0e-10;
    sol.result.readEnergy = 2.0e-12;
    sol.result.writeEnergy = 2.5e-12;
    sol.result.searchEnergy = 0.0;
    sol.result.subthresholdLeakage = 1.0e-3;
    sol.result.gateLeakage = 2.0e-4;
    sol.result.refreshPower = 0.0;
    sol.result.height = 4.5e-4;
    sol.result.width = 2.5e-4;
    sol.meetsTiming = false;
    return sol;
}

/** Patch one byte of a record file and re-seal its trailing checksum. */
void
patchByteAndReseal(const std::string &path, std::size_t offset,
                   std::uint8_t value)
{
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(common::readFileBytes(path, bytes));
    ASSERT_GT(bytes.size(), offset + 8);
    bytes[offset] = value;
    const std::uint64_t checksum =
        common::fnv1a64(bytes.data(), bytes.size() - 8);
    for (int i = 0; i < 8; ++i)
        bytes[bytes.size() - 8 + i] =
            static_cast<std::uint8_t>(checksum >> (8 * i));
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
}

} // namespace

TEST(Serialize, LittleEndianFixedWidthLayout)
{
    common::ByteWriter w;
    w.putU8(0xab);
    w.putU32(0x01020304U);
    w.putU64(0x0102030405060708ULL);
    w.putI32(-2);
    const auto &b = w.bytes();
    ASSERT_EQ(b.size(), 1u + 4 + 8 + 4);
    EXPECT_EQ(b[0], 0xab);
    EXPECT_EQ(b[1], 0x04);  // least significant byte first
    EXPECT_EQ(b[4], 0x01);
    EXPECT_EQ(b[5], 0x08);
    EXPECT_EQ(b[13], 0xfe);  // two's complement LSB of -2

    common::ByteReader r(b);
    EXPECT_EQ(r.getU8(), 0xab);
    EXPECT_EQ(r.getU32(), 0x01020304U);
    EXPECT_EQ(r.getU64(), 0x0102030405060708ULL);
    EXPECT_EQ(r.getI32(), -2);
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);
}

TEST(Serialize, DoubleRoundTripAndNegativeZeroCanonicalized)
{
    common::ByteWriter w;
    w.putF64(3.14159265358979);
    w.putF64(-0.0);
    common::ByteReader r(w.bytes());
    EXPECT_EQ(r.getF64(), 3.14159265358979);
    const double zero = r.getF64();
    EXPECT_EQ(zero, 0.0);
    EXPECT_FALSE(std::signbit(zero));  // -0.0 stored as +0.0
}

TEST(Serialize, ReaderLatchesOutOfBoundsInsteadOfCrashing)
{
    const std::vector<std::uint8_t> two = {1, 2};
    common::ByteReader r(two);
    EXPECT_EQ(r.getU32(), 0u);  // truncated: reads as zero
    EXPECT_FALSE(r.ok());
    EXPECT_EQ(r.getU64(), 0u);  // stays latched
    EXPECT_FALSE(r.ok());
}

TEST(Serialize, Fnv1a64MatchesReferenceVectors)
{
    // Published FNV-1a 64 test vectors.
    const std::uint8_t a[] = {'a'};
    EXPECT_EQ(common::fnv1a64(a, 1), 0xaf63dc4c8601ec8cULL);
    const std::uint8_t foobar[] = {'f', 'o', 'o', 'b', 'a', 'r'};
    EXPECT_EQ(common::fnv1a64(foobar, 6), 0x85944171f73967e8ULL);
    EXPECT_EQ(common::fnv1a64(nullptr, 0), 0xcbf29ce484222325ULL);
    EXPECT_EQ(common::toHex64(0xaf63dc4c8601ec8cULL),
              "af63dc4c8601ec8c");
}

TEST(Serialize, WriteFileAtomicCreatesAndReplaces)
{
    const fs::path dir = scratchDir("atomic");
    fs::create_directories(dir);
    const std::string path = (dir / "f.bin").string();
    EXPECT_TRUE(common::writeFileAtomic(path, {1, 2, 3}));
    EXPECT_TRUE(common::writeFileAtomic(path, {9, 8}));
    std::vector<std::uint8_t> got;
    EXPECT_TRUE(common::readFileBytes(path, got));
    EXPECT_EQ(got, (std::vector<std::uint8_t>{9, 8}));
    // No leftover temp files after publishing.
    std::size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir))
        files += e.is_regular_file();
    EXPECT_EQ(files, 1u);
    fs::remove_all(dir);
}

TEST(DiskCache, OpenSweepsStaleTempFilesButSparesFreshOnes)
{
    const fs::path dir = scratchDir("tmpsweep");
    fs::create_directories(dir);
    // A crashed writer's dropping, aged past the sweep grace period...
    const fs::path stale = dir / ".tmp.deadwriter";
    std::ofstream(stale) << "partial";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));
    // ...a concurrent writer's in-flight temp file (recent)...
    const fs::path fresh = dir / ".tmp.inflight";
    std::ofstream(fresh) << "partial";
    // ...and a real record-like file that must never be touched.
    const fs::path record = dir / "0123456789abcdef.bin";
    std::ofstream(record) << "record";

    array::ArrayDiskCache disk(dir.string());
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
    EXPECT_TRUE(fs::exists(record));
    fs::remove_all(dir);
}

TEST(DiskCache, RecordRoundTripPreservesEveryField)
{
    const fs::path dir = scratchDir("roundtrip");
    array::ArrayDiskCache disk(dir.string());
    const auto key = sampleKey();
    const auto sol = sampleSolution();
    ASSERT_TRUE(disk.store(key, sol));

    bool corrupt = true;
    const auto got = disk.load(key, corrupt);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(corrupt);
    EXPECT_EQ(got->result.org.ndwl, sol.result.org.ndwl);
    EXPECT_EQ(got->result.org.ndbl, sol.result.org.ndbl);
    EXPECT_EQ(got->result.org.nspd, sol.result.org.nspd);
    EXPECT_EQ(got->result.area, sol.result.area);
    EXPECT_EQ(got->result.accessDelay, sol.result.accessDelay);
    EXPECT_EQ(got->result.cycleTime, sol.result.cycleTime);
    EXPECT_EQ(got->result.readEnergy, sol.result.readEnergy);
    EXPECT_EQ(got->result.writeEnergy, sol.result.writeEnergy);
    EXPECT_EQ(got->result.searchEnergy, sol.result.searchEnergy);
    EXPECT_EQ(got->result.subthresholdLeakage,
              sol.result.subthresholdLeakage);
    EXPECT_EQ(got->result.gateLeakage, sol.result.gateLeakage);
    EXPECT_EQ(got->result.refreshPower, sol.result.refreshPower);
    EXPECT_EQ(got->result.height, sol.result.height);
    EXPECT_EQ(got->result.width, sol.result.width);
    EXPECT_EQ(got->meetsTiming, sol.meetsTiming);
    fs::remove_all(dir);
}

TEST(DiskCache, RecordNameAndBytesArePinned)
{
    // A cache directory written by an earlier build must keep
    // serving, so the record name and every record byte for this key
    // stay exactly these until kFormatVersion changes.
    const fs::path dir = scratchDir("pinned");
    array::ArrayDiskCache disk(dir.string());
    const auto key = sampleKey();
    ASSERT_TRUE(disk.store(key, sampleSolution()));
    EXPECT_EQ(fs::path(disk.recordPath(key)).filename().string(),
              "231eee4670fdc73c.arr");

    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(common::readFileBytes(disk.recordPath(key), bytes));
    std::string hex;
    for (std::uint8_t b : bytes) {
        hex += "0123456789abcdef"[b >> 4];
        hex += "0123456789abcdef"[b & 0xf];
    }
    EXPECT_EQ(hex,
              "4d4350410100000080000000000000000000e04080000000000000"
              "000000000000000000010000000000000000000000000000000200"
              "000000000000000000002d00000000000000000000000000f03f00"
              "000000008076400000000000000000000059400000000000003440"
              "000000000000244000000000000034400000000000003440000000"
              "000000f43f0400000002000000000000000000e03f8dedb5a0f7c6"
              "803e03c69cde430df83dbbbdd7d9df7cfb3d11ea2d819997813d95"
              "6479e17ffd853d0000000000000000fca9f1d24d62503f2d431ceb"
              "e2362a3f000000000000000092cb7f48bf7d3d3ffca9f1d24d6230"
              "3f001a948b8f186801c2");
    fs::remove_all(dir);
}

TEST(DiskCache, MissingRecordIsAMissNotCorrupt)
{
    const fs::path dir = scratchDir("missing");
    array::ArrayDiskCache disk(dir.string());
    bool corrupt = true;
    EXPECT_FALSE(disk.load(sampleKey(), corrupt).has_value());
    EXPECT_FALSE(corrupt);
    fs::remove_all(dir);
}

TEST(DiskCache, TruncatedRecordReadsAsCorruptMiss)
{
    const fs::path dir = scratchDir("truncated");
    array::ArrayDiskCache disk(dir.string());
    const auto key = sampleKey();
    ASSERT_TRUE(disk.store(key, sampleSolution()));

    const std::string path = disk.recordPath(key);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(common::readFileBytes(path, bytes));
    for (const std::size_t keep :
         {bytes.size() - 5, bytes.size() / 2, std::size_t{3},
          std::size_t{0}}) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char *>(bytes.data()),
                  static_cast<std::streamsize>(keep));
        out.close();
        bool corrupt = false;
        EXPECT_FALSE(disk.load(key, corrupt).has_value()) << keep;
        EXPECT_TRUE(corrupt) << keep;
    }
    fs::remove_all(dir);
}

TEST(DiskCache, EmptyRecordIsACorruptMissThatTheNextStoreReplaces)
{
    // Records are published without fsync, so a crash can leave the
    // final name pointing at a file whose data never reached the disk.
    const fs::path dir = scratchDir("empty");
    array::ArrayDiskCache disk(dir.string());
    const auto key = sampleKey();
    fs::create_directories(dir);
    std::ofstream(disk.recordPath(key), std::ios::binary).close();
    ASSERT_EQ(fs::file_size(disk.recordPath(key)), 0u);

    bool corrupt = false;
    EXPECT_FALSE(disk.load(key, corrupt).has_value());
    EXPECT_TRUE(corrupt);

    const auto sol = sampleSolution();
    ASSERT_TRUE(disk.store(key, sol));
    corrupt = true;
    const auto got = disk.load(key, corrupt);
    ASSERT_TRUE(got.has_value());
    EXPECT_FALSE(corrupt);
    EXPECT_EQ(got->result.area, sol.result.area);
    EXPECT_EQ(got->meetsTiming, sol.meetsTiming);
    fs::remove_all(dir);
}

TEST(DiskCache, WrongVersionByteReadsAsCorruptMiss)
{
    const fs::path dir = scratchDir("version");
    array::ArrayDiskCache disk(dir.string());
    const auto key = sampleKey();
    ASSERT_TRUE(disk.store(key, sampleSolution()));

    // Layout: magic u32 at 0, version u8 at 4.  Reseal the checksum so
    // only the version check can reject the record.
    patchByteAndReseal(disk.recordPath(key), 4,
                       array::ArrayDiskCache::kFormatVersion + 1);
    bool corrupt = false;
    EXPECT_FALSE(disk.load(key, corrupt).has_value());
    EXPECT_TRUE(corrupt);
    fs::remove_all(dir);
}

TEST(DiskCache, FlippedPayloadByteFailsChecksum)
{
    const fs::path dir = scratchDir("checksum");
    array::ArrayDiskCache disk(dir.string());
    const auto key = sampleKey();
    ASSERT_TRUE(disk.store(key, sampleSolution()));

    const std::string path = disk.recordPath(key);
    std::vector<std::uint8_t> bytes;
    ASSERT_TRUE(common::readFileBytes(path, bytes));
    bytes[bytes.size() - 12] ^= 0xff;  // payload byte, checksum untouched
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char *>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.close();
    bool corrupt = false;
    EXPECT_FALSE(disk.load(key, corrupt).has_value());
    EXPECT_TRUE(corrupt);
    fs::remove_all(dir);
}

TEST(DiskCache, HashCollisionOnKeyPrefixReadsAsCorruptMiss)
{
    const fs::path dir = scratchDir("collision");
    array::ArrayDiskCache disk(dir.string());
    const auto key_a = sampleKey();
    ASSERT_TRUE(disk.store(key_a, sampleSolution()));

    // A different key whose record file we forge by copying key A's
    // record into key B's slot — exactly what a 64-bit filename-hash
    // collision would produce.  The embedded key bytes must unmask it.
    const tech::Technology t(45);
    array::ArrayParams p;
    p.name = "collider";
    p.sizeBytes = 64.0 * 1024;
    p.blockWidthBits = 256;
    const auto key_b = array::ArrayResultCache::makeKey(p, t, {});
    ASSERT_NE(disk.recordPath(key_a), disk.recordPath(key_b));
    fs::copy_file(disk.recordPath(key_a), disk.recordPath(key_b));

    bool corrupt = false;
    EXPECT_FALSE(disk.load(key_b, corrupt).has_value());
    EXPECT_TRUE(corrupt);
    // The honestly stored key still loads cleanly.
    corrupt = true;
    EXPECT_TRUE(disk.load(key_a, corrupt).has_value());
    EXPECT_FALSE(corrupt);
    fs::remove_all(dir);
}

TEST(DiskCache, UnusableCacheDirectoryDegradesToMissWithoutCrashing)
{
    // Point the cache "directory" at an existing regular file: creation
    // must fail no matter the process privileges (chmod is unreliable
    // for root), stores must fail, and solving must still succeed.
    const fs::path dir = scratchDir("unusable");
    fs::create_directories(dir);
    const fs::path blocker = dir / "not_a_directory";
    std::ofstream(blocker.string()) << "x";

    array::ArrayDiskCache disk(blocker.string());
    const auto key = sampleKey();
    EXPECT_FALSE(disk.store(key, sampleSolution()));
    bool corrupt = false;
    EXPECT_FALSE(disk.load(key, corrupt).has_value());
    EXPECT_FALSE(corrupt);

    // Through the full stack: the two-tier cache keeps working and
    // counts write failures; results are unaffected.
    {
        DiskCacheGuard guard(blocker);
        const tech::Technology t(45);
        array::ArrayParams p;
        p.name = "degraded";
        p.sizeBytes = 16.0 * 1024;
        p.blockWidthBits = 128;
        const array::ArrayModel m(p, t);
        EXPECT_GT(m.area(), 0.0);
        const auto stats = array::ArrayResultCache::instance().stats();
        EXPECT_GE(stats.diskWriteFailures, 1u);
        EXPECT_EQ(stats.diskHits, 0u);
    }
    fs::remove_all(dir);
}

TEST(DiskCache, TwoTierPromotionAcrossMemoryClears)
{
    const fs::path dir = scratchDir("twotier");
    DiskCacheGuard guard(dir);
    auto &cache = array::ArrayResultCache::instance();

    const tech::Technology t(45);
    array::ArrayParams p;
    p.name = "two tier";
    p.sizeBytes = 64.0 * 1024;
    p.blockWidthBits = 256;
    p.banks = 2;

    const array::ArrayModel cold(p, t);   // solves, persists
    {
        const auto s = cache.stats();
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.diskMisses, 1u);
        EXPECT_EQ(s.diskHits, 0u);
    }

    cache.clear();  // drop the memory tier, keep disk records
    const array::ArrayModel warm(p, t);   // must come from disk
    {
        const auto s = cache.stats();
        EXPECT_EQ(s.hits, 0u);
        EXPECT_EQ(s.misses, 1u);
        EXPECT_EQ(s.diskHits, 1u);
        EXPECT_EQ(s.diskMisses, 0u);
        EXPECT_EQ(s.diskCorrupt, 0u);
    }

    const array::ArrayModel memo(p, t);   // now memory-resident again
    EXPECT_EQ(cache.stats().hits, 1u);

    // Bit-identical across all three paths.
    EXPECT_EQ(cold.area(), warm.area());
    EXPECT_EQ(cold.accessDelay(), warm.accessDelay());
    EXPECT_EQ(cold.readEnergy(), warm.readEnergy());
    EXPECT_EQ(cold.subthresholdLeakage(), warm.subthresholdLeakage());
    EXPECT_EQ(cold.result().org.ndwl, warm.result().org.ndwl);
    EXPECT_EQ(cold.result().org.ndbl, warm.result().org.ndbl);
    EXPECT_EQ(cold.result().org.nspd, warm.result().org.nspd);
    EXPECT_EQ(warm.area(), memo.area());
    EXPECT_EQ(warm.meetsTiming(), memo.meetsTiming());
}

TEST(ArrayCache, MemoryTierEvictsOldestAtItsCapacity)
{
    auto &cache = array::ArrayResultCache::instance();
    const bool was_enabled = cache.enabled();
    const std::string was_dir = cache.cacheDir();
    cache.setEnabled(true);
    cache.setCacheDir("");
    cache.clear();

    const tech::Technology t(45);
    constexpr std::size_t cap = array::ArrayResultCache::kMemoryEntries;
    constexpr std::size_t extra = 3;
    auto key = [&](std::size_t i) {
        array::ArrayParams p;
        p.sizeBytes = 1024.0 * static_cast<double>(i + 1);
        p.blockWidthBits = 64;
        return array::ArrayResultCache::makeKey(p, t, {});
    };
    for (std::size_t i = 0; i < cap + extra; ++i)
        cache.insert(key(i), sampleSolution());

    const auto filled = cache.stats();
    EXPECT_EQ(filled.entries, cap);
    EXPECT_EQ(filled.evictions, extra);
    EXPECT_FALSE(cache.find(key(0)).has_value());
    EXPECT_TRUE(cache.find(key(cap + extra - 1)).has_value());

    cache.clear();
    cache.setCacheDir(was_dir);
    cache.setEnabled(was_enabled);
}
