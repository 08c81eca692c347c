/**
 * @file
 * Shared cache (L2/L3) model: a banked cache with coherence-directory
 * tag overhead and its controller buffers.
 */

#ifndef MCPAT_UNCORE_SHARED_CACHE_HH
#define MCPAT_UNCORE_SHARED_CACHE_HH

#include <memory>

#include "array/cache_model.hh"
#include "circuit/clock_network.hh"

namespace mcpat {
namespace uncore {

using tech::Technology;

/** Parameters of a shared cache level. */
struct SharedCacheParams
{
    std::string name = "L2";
    double capacityBytes = 2.0 * 1024 * 1024;
    int blockBytes = 64;
    int assoc = 8;
    int banks = 4;
    int ports = 1;

    /** Sharers tracked by the in-tag directory (0 = none). */
    int directorySharers = 0;

    /** Store SECDED ECC with the data (+12.5% bits), on by default. */
    bool ecc = true;

    /** Data-array cell type: SRAM (default) or dense EDRAM. */
    array::CellType dataCell = array::CellType::SRAM;

    double clockRate = 1.0 * GHz;
    tech::DeviceFlavor flavor = tech::DeviceFlavor::LSTP;

    int mshrs = 16;
    int writeBackEntries = 16;
    int physicalAddressBits = 42;

    auto operator<=>(const SharedCacheParams &) const = default;
};

/**
 * One shared cache instance.
 */
class SharedCache
{
  public:
    SharedCache(SharedCacheParams params, const Technology &t);

    const SharedCacheParams &params() const { return _params; }
    const array::CacheModel &cache() const { return *_cache; }

    double area() const
    {
        return _cache->area() + _ctrlArea + _clock->area();
    }
    double hitDelay() const { return _cache->hitDelay(); }

    Report makeReport(const array::CacheRates &tdp,
                      const array::CacheRates &rt) const;

  private:
    SharedCacheParams _params;
    std::unique_ptr<array::CacheModel> _cache;

    /** Pipeline latches + clock spine of the banked macro. */
    std::unique_ptr<circuit::ClockNetwork> _clock;
    /** Controller logic (coherence engine, schedulers). */
    double _ctrlArea = 0.0;
    double _ctrlEnergyPerAccess = 0.0;
    double _ctrlSubLeak = 0.0;
    double _ctrlGateLeak = 0.0;
};

} // namespace uncore
} // namespace mcpat

#endif // MCPAT_UNCORE_SHARED_CACHE_HH
