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
#include "common/field_table.hh"

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

inline constexpr fields::Spelling<array::CellType> kCellTypeSpellings[] = {
    {"SRAM", array::CellType::SRAM}, {"sram", array::CellType::SRAM},
    {"EDRAM", array::CellType::EDRAM}, {"edram", array::CellType::EDRAM}};

/** SharedCacheParams' XML rows (common/field_table.hh); the component
 *  id names the cache and chip::kCacheCountField counts it. */
inline constexpr auto kSharedCacheFields = [](auto &&visit, auto &...l) {
    using namespace fields;
    visit(Field{"size_kb", Real{1.0, 1048576.0, KiB}}, l.capacityBytes...);
    visit(Field{"block", Int{4, 4096}}, l.blockBytes...);
    visit(Field{"assoc", Int{0, 128}}, l.assoc...);
    visit(Field{"banks", Int{1, 1024}}, l.banks...);
    visit(Field{"ports", Int{1, 16}}, l.ports...);
    visit(Field{"directory_sharers", Int{0, 4096}}, l.directorySharers...);
    visit(Field{"clock_rate_mhz", kClockMhz}, l.clockRate...);
    visit(Field{"device_type", OneOf{tech::kFlavorSpellings}}, l.flavor...);
    visit(Field{"cell_type", OneOf{kCellTypeSpellings}}, l.dataCell...);
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
