/**
 * @file
 * Array-solution memo table.
 */

#include "array/array_cache.hh"

#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <ostream>
#include <sstream>

#include "array/array_model.hh"
#include "array/disk_cache.hh"
#include "common/instrument.hh"
#include "common/parallel.hh"

namespace mcpat {
namespace array {

namespace {

double
ratioOrZero(std::uint64_t part, std::uint64_t total)
{
    return total ? static_cast<double>(part) / total : 0.0;
}

/**
 * Absorb both cache tiers' counters into the instrumentation registry.
 * The cache keeps its own cheap internal counters (they predate the
 * registry and are integral to find/insert); this collector mirrors
 * them into gauges at snapshot time so manifests, traces, and the
 * -cache_stats reporter all read one source of truth.
 */
[[maybe_unused]] const bool g_cache_collector_registered =
    instr::Registry::instance().addCollector([](instr::Registry &reg) {
        const ArrayCacheStats s = ArrayResultCache::instance().stats();
        reg.gauge("cache.memory.hits")
            .set(static_cast<double>(s.hits));
        reg.gauge("cache.memory.misses")
            .set(static_cast<double>(s.misses));
        reg.gauge("cache.memory.entries")
            .set(static_cast<double>(s.entries));
        reg.gauge("cache.memory.hit_rate")
            .set(ratioOrZero(s.hits, s.hits + s.misses));
        reg.gauge("cache.disk.hits")
            .set(static_cast<double>(s.diskHits));
        reg.gauge("cache.disk.misses")
            .set(static_cast<double>(s.diskMisses));
        reg.gauge("cache.disk.corrupt")
            .set(static_cast<double>(s.diskCorrupt));
        reg.gauge("cache.disk.write_failures")
            .set(static_cast<double>(s.diskWriteFailures));
        reg.gauge("cache.disk.hit_rate")
            .set(ratioOrZero(s.diskHits, s.diskHits + s.diskMisses));
    });

/** "82.4%" from a registry hit-rate gauge; "-" when nothing happened. */
std::string
percent(double rate, double total)
{
    if (total <= 0.0)
        return "-";
    std::ostringstream os;
    os << std::fixed << std::setprecision(1) << 100.0 * rate << "%";
    return os.str();
}

} // namespace

void
reportCacheStats(std::ostream &os)
{
    // Snapshot with collectors so the line below is rendered from the
    // registry, not from a second private read of the cache counters.
    const auto samples = instr::Registry::instance().snapshot(true);
    auto get = [&](const char *name) {
        for (const auto &s : samples)
            if (s.name == name)
                return s.value;
        return 0.0;
    };
    const double mem_hits = get("cache.memory.hits");
    const double mem_misses = get("cache.memory.misses");
    const double disk_hits = get("cache.disk.hits");
    const double disk_misses = get("cache.disk.misses");
    os << "array cache: memory " << std::uint64_t(mem_hits)
       << " hits, " << std::uint64_t(mem_misses) << " misses ("
       << percent(get("cache.memory.hit_rate"), mem_hits + mem_misses)
       << " hit rate, " << std::uint64_t(get("cache.memory.entries"))
       << " entries); disk " << std::uint64_t(disk_hits) << " hits, "
       << std::uint64_t(disk_misses) << " misses ("
       << percent(get("cache.disk.hit_rate"), disk_hits + disk_misses)
       << " hit rate, " << std::uint64_t(get("cache.disk.corrupt"))
       << " corrupt, "
       << std::uint64_t(get("cache.disk.write_failures"))
       << " write failures); " << std::uint64_t(get("parallel.threads"))
       << " evaluation threads\n";
}

ArrayResultCache::ArrayResultCache()
{
    if (const char *env = std::getenv("MCPAT_ARRAY_CACHE"))
        _enabled = std::strcmp(env, "0") != 0;
    if (const char *dir = std::getenv("MCPAT_CACHE_DIR")) {
        if (*dir != '\0')
            _disk = std::make_unique<ArrayDiskCache>(dir);
    }
}

ArrayResultCache::~ArrayResultCache() = default;

void
ArrayResultCache::setCacheDir(const std::string &dir)
{
    std::lock_guard<std::mutex> lock(_mutex);
    _disk = dir.empty() ? nullptr : std::make_unique<ArrayDiskCache>(dir);
    _diskHits = 0;
    _diskMisses = 0;
    _diskCorrupt = 0;
    _diskWriteFailures = 0;
}

std::string
ArrayResultCache::cacheDir() const
{
    std::lock_guard<std::mutex> lock(_mutex);
    return _disk ? _disk->directory() : std::string();
}

ArrayResultCache &
ArrayResultCache::instance()
{
    static ArrayResultCache cache;
    return cache;
}

ArrayCacheKey
ArrayResultCache::makeKey(const ArrayParams &params,
                          const tech::Technology &resolved_tech,
                          const OptimizationWeights &weights)
{
    ArrayCacheKey k{params, resolved_tech.operatingPoint(), weights};
    k.params.name.clear();
    k.params.flavor.reset();
    return k;
}

std::optional<CachedArraySolution>
ArrayResultCache::find(const ArrayCacheKey &key)
{
    if (!_enabled)
        return std::nullopt;
    if (auto sol = _memory.find(key))
        return sol;

    // Memory miss: fall through to the persistent tier.  A clean disk
    // hit is promoted into the memory tier so later lookups of the
    // same key never touch the filesystem again.
    std::lock_guard<std::mutex> lock(_mutex);
    if (!_disk)
        return std::nullopt;
    bool corrupt = false;
    if (auto sol = _disk->load(key, corrupt)) {
        ++_diskHits;
        return _memory.insert(key, *sol);
    }
    ++_diskMisses;
    if (corrupt)
        ++_diskCorrupt;
    return std::nullopt;
}

void
ArrayResultCache::insert(const ArrayCacheKey &key,
                         const CachedArraySolution &sol)
{
    if (!_enabled)
        return;
    _memory.insert(key, sol);
    std::lock_guard<std::mutex> lock(_mutex);
    if (_disk && !_disk->store(key, sol))
        ++_diskWriteFailures;
}

ArrayCacheStats
ArrayResultCache::stats() const
{
    const common::KeyedMemoStats mem = _memory.stats();
    std::lock_guard<std::mutex> lock(_mutex);
    ArrayCacheStats s;
    s.hits = mem.hits;
    s.misses = mem.misses;
    s.entries = mem.entries;
    s.evictions = mem.evictions;
    s.diskHits = _diskHits;
    s.diskMisses = _diskMisses;
    s.diskCorrupt = _diskCorrupt;
    s.diskWriteFailures = _diskWriteFailures;
    return s;
}

void
ArrayResultCache::clear()
{
    _memory.clear();
    std::lock_guard<std::mutex> lock(_mutex);
    _diskHits = 0;
    _diskMisses = 0;
    _diskCorrupt = 0;
    _diskWriteFailures = 0;
}

} // namespace array
} // namespace mcpat
