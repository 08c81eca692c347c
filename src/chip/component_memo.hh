/**
 * @file
 * Component-level memoization for chip assembly (delta evaluation).
 *
 * A design-space sweep rebuilds nearly identical chips at every grid
 * point: a point that only changes the L2 size still re-solves every
 * core-side array, re-sizes the clock tree, and re-runs the organization
 * search for structures whose parameters did not move.  The array memo
 * (array/array_cache.hh) already removes the per-array cost; this layer
 * sits one level up and removes the per-*component* cost.  Fully built
 * components — cores, shared caches, directories, NoCs, memory
 * controllers, chip I/O — are cached process-wide, one table per kind,
 * keyed by the pair
 *
 *     { resolved technology operating point, component params struct }
 *
 * compared with the structs' defaulted operators.  Every field takes
 * part, nested cache/predictor/router params and the display name
 * included (reports embed it), and a field added to a params struct
 * joins the key without anyone listing it.
 *
 * Processor assembly (chip/processor.cc) consults the memo per
 * component, which is what makes evaluation *delta*: two sweep points
 * that differ only in L2 capacity share every core-side build verbatim,
 * and the second point pays only for the components whose key changed.
 * This is dirty tracking by construction — a component is "dirty"
 * exactly when its key differs from every cached entry, so invalidation
 * can never be forgotten.  A key holding a NaN is not equal to itself:
 * such a component is built and returned but never stored.
 *
 * Cached components are immutable after construction (makeReport and
 * friends are const), self-contained (Core and ArrayModel copy their
 * Technology by value; the others keep only derived figures), and
 * deterministic to build, so sharing them across Processor instances —
 * and across threads — never changes reported numbers.  A memoized
 * assembly is bit-identical to a fresh one.
 *
 * Each kind keeps at most kEntriesPerKind entries and drops its oldest
 * first.  The memo is enabled by default; disable with
 * MCPAT_COMPONENT_MEMO=0 or setEnabled(false).  Hit/miss/entry/eviction
 * counters are exported into the instrumentation registry
 * ("component_memo.*") via a collector.
 */

#ifndef MCPAT_CHIP_COMPONENT_MEMO_HH
#define MCPAT_CHIP_COMPONENT_MEMO_HH

#include <cstdint>
#include <memory>
#include <tuple>
#include <utility>

#include "common/keyed_memo.hh"
#include "core/core.hh"
#include "uncore/chip_io.hh"
#include "uncore/directory.hh"
#include "uncore/memctrl.hh"
#include "uncore/noc.hh"
#include "uncore/shared_cache.hh"

namespace mcpat {
namespace chip {

/** Memo observability counters. */
struct ComponentMemoStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::size_t entries = 0;
    /** Entries dropped to stay within the per-kind cap. */
    std::uint64_t evictions = 0;
};

/**
 * Process-global, thread-safe memo of built chip components.
 *
 * Lookups and insertions are synchronized; construction on a miss runs
 * outside the lock, so two threads racing on the same key may both
 * build — the first insert wins and the loser adopts it (builds are
 * deterministic, so the copies are interchangeable).
 */
class ComponentMemo
{
  public:
    /** Entries kept per component kind. */
    static constexpr std::size_t kEntriesPerKind = 1024;

    static ComponentMemo &instance();

    bool enabled() const { return _enabled; }
    void setEnabled(bool on) { _enabled = on; }

    /**
     * The component of kind T built from @p params at @p t's operating
     * point: the cached one when an equal key was built before,
     * otherwise a fresh build (e.g. get<core::Core>(core_params, t)).
     */
    template <typename T, typename P>
    std::shared_ptr<const T>
    get(const P &params, const tech::Technology &t)
    {
        if (!_enabled)
            return std::make_shared<const T>(params, t);
        auto &table = std::get<Table<T, P>>(_tables);
        const std::pair<tech::OperatingPoint, P> key{t.operatingPoint(),
                                                     params};
        if (auto hit = table.find(key))
            return *hit;
        // Build outside the lock: component construction is the
        // expensive part and may itself fan out onto the thread pool.
        return table.insert(key, std::make_shared<const T>(params, t));
    }

    ComponentMemoStats stats() const;

    /** Drop every entry and zero the counters. */
    void clear();

  private:
    ComponentMemo();

    template <typename T, typename P>
    struct Table
        : common::KeyedMemo<std::pair<tech::OperatingPoint, P>,
                            std::shared_ptr<const T>>
    {
        Table() : Table::KeyedMemo(kEntriesPerKind) {}
    };

    std::tuple<Table<core::Core, core::CoreParams>,
               Table<uncore::SharedCache, uncore::SharedCacheParams>,
               Table<uncore::Directory, uncore::DirectoryParams>,
               Table<uncore::Noc, uncore::NocParams>,
               Table<uncore::MemoryController, uncore::MemCtrlParams>,
               Table<uncore::ChipIo, uncore::ChipIoParams>>
        _tables;
    bool _enabled = true;
};

} // namespace chip
} // namespace mcpat

#endif // MCPAT_CHIP_COMPONENT_MEMO_HH
