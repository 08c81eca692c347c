/**
 * @file
 * Memoization cache for solved array organizations.
 *
 * The organization search in ArrayModel::optimize evaluates 216
 * candidate (ndwl, ndbl, nspd) organizations per array.  Chips repeat
 * identical structures constantly — 64 homogeneous cores share one
 * icache shape, a design-point sweep rebuilds the same L2 at every
 * clustering, validation targets re-solve the same register files — so
 * the solver memoizes results keyed by everything that influences the
 * outcome: the ArrayParams (display name and requested flavor cleared),
 * the resolved technology operating point, and the optimizer weights.
 * The key is those three structs, compared with their defaulted
 * operators, so a field added to any of them joins the key by itself.
 *
 * The memory tier is a common::KeyedMemo: process-global, thread-safe,
 * and bounded at kMemoryEntries with first-in-first-out eviction.  A
 * cached solution is bit-identical to a fresh solve of the same key
 * (the solver is deterministic), so caching never changes reported
 * numbers.  Disable with MCPAT_ARRAY_CACHE=0 or
 * ArrayResultCache::instance().setEnabled(false).
 *
 * A second, persistent tier (disk_cache.hh) layers underneath: on a
 * memory miss the solver probes a record store on disk, and fresh
 * solves are written through to it, so separate processes — repeated
 * CLI runs, -batch sweeps, CI jobs — share solved organizations.  The
 * disk tier activates when a cache directory is configured via
 * setCacheDir() (CLI -cache_dir) or the MCPAT_CACHE_DIR environment
 * variable; it is off otherwise.  Disk records that are truncated,
 * version-mismatched, or aliased by a hash collision count as corrupt
 * and read as misses — persistence failures never affect results.
 */

#ifndef MCPAT_ARRAY_ARRAY_CACHE_HH
#define MCPAT_ARRAY_ARRAY_CACHE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "array/array_params.hh"
#include "common/keyed_memo.hh"

namespace mcpat {
namespace array {

/**
 * Everything that determines an array solution.  makeKey clears the
 * params' display name, which never changes a solution, and their
 * requested flavor, which is resolved into the operating point.
 */
struct ArrayCacheKey
{
    ArrayParams params;
    tech::OperatingPoint op;
    OptimizationWeights weights;

    auto operator<=>(const ArrayCacheKey &) const = default;
};

/** A memoized solver outcome. */
struct CachedArraySolution
{
    ArrayResult result;
    bool meetsTiming = true;
};

/** Cache observability counters, exported per tier. */
struct ArrayCacheStats
{
    // In-memory tier.
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;     ///< memory-tier misses (pre disk probe)
    std::size_t entries = 0;
    std::uint64_t evictions = 0;  ///< entries dropped at the capacity

    // Persistent disk tier (all zero when no cache dir is configured).
    std::uint64_t diskHits = 0;
    std::uint64_t diskMisses = 0;        ///< probes with no usable record
    std::uint64_t diskCorrupt = 0;       ///< records skipped as invalid
    std::uint64_t diskWriteFailures = 0; ///< records that failed to persist
};

class ArrayDiskCache;

/**
 * Registry-backed cache reporter: publish both tiers' counters into
 * the instrumentation registry (via its collectors) and print the
 * canonical one-line summary — hits, misses, hit rates, entries,
 * corruption/write-failure counts, and the evaluation thread count.
 * The CLI's -cache_stats (single-run and batch) and the batch summary
 * all route through this one function, so the two modes cannot drift.
 */
void reportCacheStats(std::ostream &os);

/**
 * Process-global, thread-safe memo table for ArrayModel solutions,
 * backed by an optional persistent disk tier.
 */
class ArrayResultCache
{
  public:
    /**
     * Memory-tier capacity, oldest entry dropped first.  The largest
     * tier measured on the perfbench workloads, the test suite and the
     * examples holds 1,355 entries (MODELING.md section 6b); an entry
     * is about 330 bytes, so a full tier is about 5 MB.
     */
    static constexpr std::size_t kMemoryEntries = 16384;

    static ArrayResultCache &instance();

    /** Compose the canonical key for one solve. */
    static ArrayCacheKey makeKey(const ArrayParams &params,
                                 const tech::Technology &resolved_tech,
                                 const OptimizationWeights &weights);

    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    /**
     * Configure (or reconfigure) the persistent tier.  An empty path
     * disables it.  Counters for the disk tier are zeroed; in-memory
     * entries are kept.
     */
    void setCacheDir(const std::string &dir);

    /** Active persistent-tier directory; empty when disabled. */
    std::string cacheDir() const;

    /**
     * Look up a solution; counts a hit or miss.  A memory miss falls
     * through to the disk tier (when configured); a disk hit is
     * promoted into the memory tier.  Returns nothing when the key is
     * absent from both tiers or the cache is disabled (disabled
     * lookups count neither).
     */
    std::optional<CachedArraySolution> find(const ArrayCacheKey &key);

    /**
     * Record a freshly solved solution in the memory tier and write it
     * through to the disk tier (no-op when disabled).
     */
    void insert(const ArrayCacheKey &key, const CachedArraySolution &sol);

    ArrayCacheStats stats() const;

    /**
     * Drop all in-memory entries and zero every counter.  Records
     * already persisted to the disk tier are left on disk.
     */
    void clear();

  private:
    ArrayResultCache();
    ~ArrayResultCache();  // out-of-line: ArrayDiskCache is incomplete here

    common::KeyedMemo<ArrayCacheKey, CachedArraySolution> _memory{
        kMemoryEntries};
    mutable std::mutex _mutex;  ///< guards the disk tier and its counters
    std::unique_ptr<ArrayDiskCache> _disk;
    std::uint64_t _diskHits = 0;
    std::uint64_t _diskMisses = 0;
    std::uint64_t _diskCorrupt = 0;
    std::uint64_t _diskWriteFailures = 0;
    bool _enabled = true;
};

} // namespace array
} // namespace mcpat

#endif // MCPAT_ARRAY_ARRAY_CACHE_HH
