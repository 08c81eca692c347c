/**
 * @file
 * Array organization search and assembly.
 */

#include "array/array_model.hh"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>
#include <vector>

#include "array/array_cache.hh"
#include "array/cam.hh"
#include "array/mat.hh"
#include "circuit/wire.hh"
#include "common/cancel.hh"
#include "common/instrument.hh"
#include "common/parallel.hh"

namespace mcpat {
namespace array {

using namespace circuit;

namespace {

/** Periphery replication cost per port beyond the first (decoders,
 *  sense stacks) applied to subarray leakage and area. */
constexpr double extraPortPeriphery = 0.25;

/** Routing, redundancy (spare rows/columns), and BIST overhead on the
 *  raw subarray grid area. */
constexpr double bankRoutingOverhead = 1.65;

/**
 * Clocked periphery and control overhead per access (timing chains,
 * bank control, way-select latching) on top of the explicitly modeled
 * decode/wordline/bitline/sense energies.  Calibrated against published
 * SRAM access energies.
 */
constexpr double peripheryEnergyFactor = 1.8;

const int kPartitions[] = {1, 2, 4, 8, 16, 32};
const double kFoldings[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

/** Scored metrics, in the order the objective weights them. */
enum Metric { kDelay = 0, kDynamic, kLeakage, kArea, kCycle, kMetrics };

/** The organization at a given canonical grid index. */
ArrayOrg
orgFromIndex(std::size_t idx)
{
    const std::size_t n_part = std::size(kPartitions);
    const std::size_t n_fold = std::size(kFoldings);
    return ArrayOrg{kPartitions[idx / (n_part * n_fold)],
                    kPartitions[(idx / n_fold) % n_part],
                    kFoldings[idx % n_fold]};
}

std::atomic<std::uint64_t> g_evaluated{0};
std::atomic<std::uint64_t> g_pruned{0};
std::atomic<std::uint64_t> g_subarrays{0};
std::atomic<int> g_pruneOverride{-1};  ///< -1: follow MCPAT_PRUNE

bool
pruneDefaultFromEnv()
{
    static const bool enabled = [] {
        const char *env = std::getenv("MCPAT_PRUNE");
        return !(env && env[0] == '0' && env[1] == '\0');
    }();
    return enabled;
}

/** Mirrors the organization-search counters into registry snapshots. */
[[maybe_unused]] const bool g_prune_collector_registered =
    instr::Registry::instance().addCollector([](instr::Registry &reg) {
        const std::uint64_t evaluated =
            g_evaluated.load(std::memory_order_relaxed);
        const std::uint64_t pruned =
            g_pruned.load(std::memory_order_relaxed);
        reg.gauge("prune.evaluated")
            .set(static_cast<double>(evaluated));
        reg.gauge("prune.pruned").set(static_cast<double>(pruned));
        reg.gauge("prune.subarrays")
            .set(static_cast<double>(
                g_subarrays.load(std::memory_order_relaxed)));
        reg.gauge("prune.prune_fraction")
            .set(evaluated + pruned
                     ? static_cast<double>(pruned) / (evaluated + pruned)
                     : 0.0);
    });

} // namespace

bool
optimizerPruning()
{
    const int o = g_pruneOverride.load(std::memory_order_relaxed);
    return o < 0 ? pruneDefaultFromEnv() : o != 0;
}

void
setOptimizerPruning(bool on)
{
    g_pruneOverride.store(on ? 1 : 0, std::memory_order_relaxed);
}

OptimizerSearchStats
optimizerSearchStats()
{
    return {g_evaluated.load(std::memory_order_relaxed),
            g_pruned.load(std::memory_order_relaxed),
            g_subarrays.load(std::memory_order_relaxed)};
}

void
resetOptimizerSearchStats()
{
    g_evaluated.store(0, std::memory_order_relaxed);
    g_pruned.store(0, std::memory_order_relaxed);
    g_subarrays.store(0, std::memory_order_relaxed);
}

/** One evaluated organization. */
struct ArrayModel::Candidate
{
    ArrayOrg org;
    ArrayResult res;
    double score = 0.0;
};

/** Subarray shape implied by an organization, with feasibility. */
struct ArrayModel::OrgGeometry
{
    int subRows = 0;
    int subCols = 0;
    bool feasible = false;
};

/**
 * Provable lower bounds on a candidate's scored metrics, computed
 * without constructing the Subarray (no decoder sizing) or the exact
 * H-tree wires.
 */
struct ArrayModel::CandidateFloor
{
    double lb[kMetrics] = {0.0, 0.0, 0.0, 0.0, 0.0};
};

ArrayModel::ArrayModel(ArrayParams params, const Technology &t,
                       OptimizationWeights weights)
    : _params(std::move(params)),
      _tech(t.nodeNm(), _params.flavor.value_or(t.flavor()),
            t.temperature())
{
    _params.validate();
    // Arrays follow the logic domain's DVFS ratio on their own nominal
    // supply (same voltage rail, flavor-specific nominal).
    const double ratio = t.vdd() / t.device(t.flavor()).vdd;
    if (ratio != 1.0)
        _tech.setVdd(_tech.device().vdd * ratio);
    _tech.setProjection(t.projection());

    // Identical structures (same canonical params, operating point, and
    // objective) are solved exactly once per process; the memoized
    // solution is bit-identical to a fresh solve.
    auto &cache = ArrayResultCache::instance();
    const ArrayCacheKey key =
        ArrayResultCache::makeKey(_params, _tech, weights);
    if (auto hit = cache.find(key)) {
        _result = hit->result;
        _meetsTiming = hit->meetsTiming;
        return;
    }
    optimize(weights);
    cache.insert(key, {_result, _meetsTiming});
}

ArrayModel::OrgGeometry
ArrayModel::orgGeometry(const ArrayOrg &org) const
{
    const int total_rows = _params.totalRows();
    const int row_bits = _params.rowBits();
    const int banks = _params.banks;

    const int rows_per_bank =
        static_cast<int>(std::ceil(static_cast<double>(total_rows) /
                                   banks));
    const double eff_rows = rows_per_bank / org.nspd;
    const double eff_cols = row_bits * org.nspd;

    OrgGeometry g;
    g.subRows = static_cast<int>(std::ceil(eff_rows / org.ndbl));
    g.subCols = static_cast<int>(std::ceil(eff_cols / org.ndwl));

    // Reject degenerate shapes: too small to be a real subarray or too
    // large for acceptable wordline/bitline RC.
    if (g.subRows < 4 || g.subCols < 4)
        return g;
    if (g.subRows > 1024 || g.subCols > 2048)
        return g;
    // Don't partition beyond the data: keep every subarray meaningful.
    if (org.ndbl > 1 && g.subRows * (org.ndbl - 1) >= eff_rows)
        return g;
    if (org.ndwl > 1 && g.subCols * (org.ndwl - 1) >= eff_cols)
        return g;
    g.feasible = true;
    return g;
}

std::optional<ArrayModel::Candidate>
ArrayModel::evaluate(const ArrayOrg &org) const
{
    const OrgGeometry geom = orgGeometry(org);
    if (!geom.feasible)
        return std::nullopt;
    const Subarray sub(geom.subRows, geom.subCols, _params.totalPorts(),
                       _params.cellType, _tech);
    return evaluateWith(org, geom, sub);
}

ArrayModel::Candidate
ArrayModel::evaluateWith(const ArrayOrg &org, const OrgGeometry &geom,
                         const Subarray &sub) const
{
    const int total_rows = _params.totalRows();
    const int row_bits = _params.rowBits();
    const int banks = _params.banks;
    const int ports = _params.totalPorts();
    const int sub_rows = geom.subRows;
    const int sub_cols = geom.subCols;

    const int subarrays = org.subarrays();
    const double bank_w = org.ndwl * sub.width();
    const double bank_h = org.ndbl * sub.height();

    // --- Intra-bank H-tree: address/control in, data out. ---------------
    const double htree_len = std::max(0.5 * (bank_w + bank_h), 1.0 * um);
    const RepeatedWire htree_wire(htree_len, tech::WireLayer::Intermediate,
                                  _tech);
    const int addr_wires =
        std::max(1, static_cast<int>(std::ceil(std::log2(
            std::max(2, total_rows))))) + 8;

    // --- Inter-bank routing when banked. ---------------------------------
    double global_delay = 0.0, global_energy_rd = 0.0;
    double global_leak_sub = 0.0, global_leak_gate = 0.0;
    double global_area = 0.0;
    if (banks > 1) {
        const int grid = static_cast<int>(std::ceil(std::sqrt(banks)));
        const double glen =
            std::max(0.5 * grid * (bank_w + bank_h), 1.0 * um);
        const RepeatedWire gwire(glen, tech::WireLayer::Intermediate,
                                 _tech);
        const int gwires = addr_wires + row_bits;
        global_delay = gwire.delay();
        global_energy_rd = 0.5 * gwires * gwire.energyPerEvent();
        global_leak_sub = gwires * gwire.subthresholdLeakage();
        global_leak_gate = gwires * gwire.gateLeakage();
        global_area = gwires * gwire.area();
    }

    const double htree_in_energy =
        0.5 * addr_wires * htree_wire.energyPerEvent();
    const double htree_out_energy =
        0.5 * row_bits * htree_wire.energyPerEvent();
    const double htree_delay = 2.0 * htree_wire.delay();

    // --- Per-access energies.  A read activates one stripe of ndwl
    //     subarrays, each sensing its columns. -------------------------
    const int out_bits_per_sub =
        std::max(1, row_bits / std::max(1, org.ndwl));
    double read_e = peripheryEnergyFactor *
                        (org.ndwl * sub.readEnergy(sub_cols)) +
                    htree_in_energy + htree_out_energy + global_energy_rd;
    double write_e = peripheryEnergyFactor *
                         (org.ndwl * sub.writeEnergy(out_bits_per_sub)) +
                     htree_in_energy + global_energy_rd;
    if (_params.cellType == CellType::EDRAM) {
        // Destructive read: every activated column must be restored.
        // For small subarrays the fixed read periphery can exceed the
        // restore cost; the physical restore energy is never negative,
        // so clamp at zero instead of refunding energy.
        read_e += peripheryEnergyFactor * org.ndwl *
                  std::max(0.0, sub.writeEnergy(sub_cols) -
                                    sub.readEnergy(0));
    }

    // --- Timing. ----------------------------------------------------------
    const double access = htree_delay + global_delay + sub.accessDelay();
    const double cycle = std::max(sub.cycleTime(), access * 0.5);

    // --- Leakage and area across all banks/subarrays. --------------------
    const double port_factor = 1.0 + extraPortPeriphery * (ports - 1);
    const double n_sub_total = static_cast<double>(subarrays) * banks;
    double leak_sub = n_sub_total * sub.subthresholdLeakage() * port_factor;
    double leak_gate = n_sub_total * sub.gateLeakage() * port_factor;
    const int htree_wires = addr_wires + row_bits;
    leak_sub += banks * htree_wires * htree_wire.subthresholdLeakage() +
                global_leak_sub;
    leak_gate += banks * htree_wires * htree_wire.gateLeakage() +
                 global_leak_gate;

    double area = n_sub_total * sub.area() * port_factor *
                      bankRoutingOverhead +
                  banks * htree_wires * htree_wire.area() + global_area;

    // --- CAM search path. --------------------------------------------------
    double search_e = 0.0;
    double search_delay = 0.0;
    if (_params.cellType == CellType::CAM) {
        const CamSearch cam(sub, _tech);
        // A search interrogates every subarray of one bank.
        search_e = peripheryEnergyFactor * subarrays *
                       cam.energyPerSearch() +
                   htree_in_energy;
        search_delay = htree_delay + global_delay + cam.delay();
        const double sp = _params.searchPorts;
        leak_sub += n_sub_total * cam.subthresholdLeakage() * sp;
        leak_gate += n_sub_total * cam.gateLeakage() * sp;
        area += n_sub_total * cam.area() * sp;
    }

    // eDRAM refresh: every row is read+restored once per retention
    // period (retention halves every ~10 K above the 40 us @ 350 K
    // anchor of logic eDRAM).
    double refresh_power = 0.0;
    if (_params.cellType == CellType::EDRAM) {
        const double retention =
            40.0e-6 *
            std::pow(2.0, (350.0 - _tech.temperature()) / 10.0);
        // One refresh event restores one wordline position across the
        // whole ndwl-wide stripe; every (row, ndbl, bank) position
        // must be visited once per retention period.
        const double stripe_rows =
            static_cast<double>(sub_rows) * org.ndbl * banks;
        const double stripe_energy = peripheryEnergyFactor * org.ndwl *
            (sub.readEnergy(sub_cols) + sub.writeEnergy(sub_cols));
        refresh_power = stripe_rows * stripe_energy / retention;
    }

    Candidate c;
    c.org = org;
    c.res.org = org;
    c.res.refreshPower = refresh_power;
    c.res.area = area;
    c.res.accessDelay = std::max(access, search_delay);
    c.res.cycleTime = cycle;
    c.res.readEnergy = read_e;
    c.res.writeEnergy = write_e;
    c.res.searchEnergy = search_e;
    c.res.subthresholdLeakage = leak_sub;
    c.res.gateLeakage = leak_gate;
    c.res.height = bank_h * std::ceil(std::sqrt(double(banks)));
    c.res.width = bank_w * std::ceil(std::sqrt(double(banks)));
    return c;
}

ArrayModel::CandidateFloor
ArrayModel::candidateFloor(const ArrayOrg &org, const OrgGeometry &geom,
                           const SubarrayFloor &f) const
{
    const int total_rows = _params.totalRows();
    const int row_bits = _params.rowBits();
    const int banks = _params.banks;
    const int ports = _params.totalPorts();

    // Bank footprint floor: the subarray floor dims (exact sense stack,
    // floored decoder width), so every wire length below floors the
    // real one.  Wire energy/leakage/area are monotone in length, so a
    // RepeatedWire built at the floor length bounds the real wire;
    // delay uses the analytic monotone floor instead (the discretized
    // repeater count makes exact delay non-monotone).
    const double bank_w = org.ndwl * f.width;
    const double bank_h = org.ndbl * f.height;

    const double htree_len = std::max(0.5 * (bank_w + bank_h), 1.0 * um);
    const RepeatedWire htree_wire(htree_len, tech::WireLayer::Intermediate,
                                  _tech);
    const double htree_delay = 2.0 * repeatedWireDelayFloor(
        htree_len, tech::WireLayer::Intermediate, _tech);
    const int addr_wires =
        std::max(1, static_cast<int>(std::ceil(std::log2(
            std::max(2, total_rows))))) + 8;

    double global_delay = 0.0, global_energy_rd = 0.0;
    double global_leak_sub = 0.0, global_area = 0.0;
    if (banks > 1) {
        const int grid = static_cast<int>(std::ceil(std::sqrt(banks)));
        const double glen =
            std::max(0.5 * grid * (bank_w + bank_h), 1.0 * um);
        const RepeatedWire gwire(glen, tech::WireLayer::Intermediate,
                                 _tech);
        const int gwires = addr_wires + row_bits;
        global_delay = repeatedWireDelayFloor(
            glen, tech::WireLayer::Intermediate, _tech);
        global_energy_rd = 0.5 * gwires * gwire.energyPerEvent();
        global_leak_sub = gwires * gwire.subthresholdLeakage();
        global_area = gwires * gwire.area();
    }

    const double htree_in_energy =
        0.5 * addr_wires * htree_wire.energyPerEvent();
    const double htree_out_energy =
        0.5 * row_bits * htree_wire.energyPerEvent();

    CandidateFloor c;
    // accessDelay = max(htree + global + subarray access, search path).
    const double access = htree_delay + global_delay + f.accessDelay;
    c.lb[kDelay] = access;
    // cycleTime = max(subarray cycle, 0.5 * access).
    c.lb[kCycle] = std::max(f.cycleTime, 0.5 * access);
    // readEnergy floor (searchEnergy >= 0, eDRAM restore clamped >= 0).
    c.lb[kDynamic] = peripheryEnergyFactor *
                         (org.ndwl * (f.readEnergyFixed +
                                      geom.subCols * f.readEnergyPerCol)) +
                     htree_in_energy + htree_out_energy + global_energy_rd;
    const double port_factor = 1.0 + extraPortPeriphery * (ports - 1);
    const double n_sub_total =
        static_cast<double>(org.subarrays()) * banks;
    const int htree_wires = addr_wires + row_bits;
    c.lb[kLeakage] = n_sub_total * f.subthresholdLeakage * port_factor +
                     banks * htree_wires *
                         htree_wire.subthresholdLeakage() +
                     global_leak_sub;
    c.lb[kArea] = n_sub_total * f.area * port_factor *
                      bankRoutingOverhead +
                  banks * htree_wires * htree_wire.area() + global_area;
    return c;
}

void
ArrayModel::searchExhaustive(std::vector<Candidate> &cands) const
{
    // Evaluate the full candidate grid in parallel: each organization
    // writes its own slot, then feasible candidates are collected in
    // the same (ndwl, ndbl, nspd) order the serial triple loop used,
    // keeping the selected optimum (including tie-breaks) identical.
    const std::size_t n_orgs = std::size(kPartitions) *
                               std::size(kPartitions) *
                               std::size(kFoldings);
    std::vector<std::optional<Candidate>> slots(n_orgs);
    parallel::parallelFor(n_orgs, [&](std::size_t idx) {
        cancel::checkpoint();
        slots[idx] = evaluate(orgFromIndex(idx));
    });
    for (auto &slot : slots)
        if (slot)
            cands.push_back(std::move(*slot));
    g_evaluated.fetch_add(cands.size(), std::memory_order_relaxed);
}

void
ArrayModel::searchPruned(const OptimizationWeights &weights,
                         std::vector<Candidate> &cands) const
{
    // Branch-and-bound over the organization grid, constructed to keep
    // the selected winner bit-identical to the exhaustive search:
    //
    //  - lb[m] are provable floors on each scored metric (candidateFloor);
    //    lbBest[m], their minima over every feasible organization, floor
    //    the normalizers the exhaustive selection divides by.
    //  - safeScore is the lowest sum_m w[m] * actual[m] / lbBest[m] over
    //    evaluated candidates that are pass-0 eligible under ANY final
    //    normalizers (timing target met, area <= maxAreaRatio * lbBest
    //    area) — an upper bound on the winner's final score.  While no
    //    such candidate exists, pass 0 may come up empty and nothing is
    //    pruned, so the fallback passes see the full candidate set.
    //  - a candidate may be skipped only when lb[m] >= runMin[m] for
    //    every metric (it cannot lower any normalizer below what the
    //    survivors already achieve; runMin[m] are the running minima of
    //    evaluated actuals) AND it provably cannot be selected, by
    //    either of two rules:
    //      (a) area-ineligible: lb[area] > maxAreaRatio * runMin[area].
    //          Selection keeps the area constraint in passes 0 and 1,
    //          and pass 2 is unreachable whenever any candidate exists
    //          (with maxAreaRatio >= 1 the minimum-area survivor always
    //          passes pass 1), so a candidate whose area floor exceeds
    //          the constraint under the running minimum — an upper
    //          bound on the final normalizer — can never be chosen.
    //      (b) outscored: sum_m w[m] * lb[m] / runMin[m] > safeScore.
    //    Both rules stay valid as runMin / safeScore shrink, so
    //    evaluation order and batch size cannot change the outcome.
    //
    // Many organizations share one subarray shape (subRows, subCols),
    // and a shape's floor and Subarray depend on nothing else in the
    // solve: each distinct shape is floored once here and built at most
    // once, by the first batch that evaluates it.
    const std::size_t n_orgs = std::size(kPartitions) *
                               std::size(kPartitions) *
                               std::size(kFoldings);
    const int ports = _params.totalPorts();
    struct Shape
    {
        int rows;
        int cols;
        SubarrayFloor floor;
    };
    struct Entry
    {
        std::size_t idx;       ///< canonical grid index (tie-break order)
        ArrayOrg org;
        OrgGeometry geom;
        std::size_t shape;     ///< index into shapes
        CandidateFloor floor;
        double key;            ///< bound-based visit priority
    };
    std::vector<Shape> shapes;
    std::vector<Entry> entries;
    entries.reserve(n_orgs);
    for (std::size_t idx = 0; idx < n_orgs; ++idx) {
        Entry e;
        e.idx = idx;
        e.org = orgFromIndex(idx);
        e.geom = orgGeometry(e.org);
        if (!e.geom.feasible)
            continue;
        const auto same = [&](const Shape &sh) {
            return sh.rows == e.geom.subRows && sh.cols == e.geom.subCols;
        };
        e.shape = static_cast<std::size_t>(
            std::find_if(shapes.begin(), shapes.end(), same) -
            shapes.begin());
        if (e.shape == shapes.size())
            shapes.push_back({e.geom.subRows, e.geom.subCols,
                              Subarray::floorBounds(
                                  e.geom.subRows, e.geom.subCols, ports,
                                  _params.cellType, _tech)});
        e.floor = candidateFloor(e.org, e.geom, shapes[e.shape].floor);
        entries.push_back(e);
    }
    if (entries.empty())
        return;

    const double inf = std::numeric_limits<double>::max();
    double lbBest[kMetrics];
    std::fill(std::begin(lbBest), std::end(lbBest), inf);
    for (const auto &e : entries)
        for (int m = 0; m < kMetrics; ++m)
            lbBest[m] = std::min(lbBest[m], e.floor.lb[m]);

    const double w[kMetrics] = {weights.delay, weights.dynamic,
                                weights.leakage, weights.area,
                                weights.cycle};

    // Visit likely winners first so the incumbent tightens early;
    // stable sort keeps ties in canonical order.
    for (auto &e : entries) {
        e.key = 0.0;
        for (int m = 0; m < kMetrics; ++m)
            e.key += w[m] * e.floor.lb[m] / lbBest[m];
    }
    std::stable_sort(entries.begin(), entries.end(),
                     [](const Entry &a, const Entry &b) {
                         return a.key < b.key;
                     });

    const double target = _params.targetCycleTime;
    double runMin[kMetrics];
    std::fill(std::begin(runMin), std::end(runMin), inf);
    double safeScore = inf;

    std::vector<std::pair<std::size_t, Candidate>> out;
    out.reserve(entries.size());
    const std::size_t block = static_cast<std::size_t>(
        std::max(1, parallel::threadCount()));
    std::vector<const Entry *> batch;
    std::vector<std::size_t> unbuilt;
    std::vector<std::optional<Subarray>> subs(shapes.size());
    std::vector<Candidate> slots;
    std::uint64_t pruned = 0;
    std::uint64_t built = 0;
    std::size_t cursor = 0;
    while (cursor < entries.size()) {
        // One poll per batch bounds cancellation latency to a handful
        // of candidate evaluations without taxing the inner loop.
        cancel::checkpoint();
        batch.clear();
        while (cursor < entries.size() && batch.size() < block) {
            const Entry &e = entries[cursor++];
            bool preserves_norms = true;
            for (int m = 0; m < kMetrics; ++m) {
                if (e.floor.lb[m] < runMin[m]) {
                    preserves_norms = false;
                    break;
                }
            }
            bool prune = false;
            if (preserves_norms) {
                if (weights.maxAreaRatio >= 1.0 &&
                    e.floor.lb[kArea] >
                        weights.maxAreaRatio * runMin[kArea]) {
                    prune = true;  // rule (a): area-ineligible
                } else if (safeScore < inf) {
                    double lb_score = 0.0;
                    for (int m = 0; m < kMetrics; ++m)
                        lb_score += w[m] * e.floor.lb[m] / runMin[m];
                    prune = lb_score > safeScore;  // rule (b): outscored
                }
            }
            if (prune)
                ++pruned;
            else
                batch.push_back(&e);
        }
        if (batch.empty())
            continue;
        // Build the batch's unseen shapes first, each by one task into
        // its own slot, so evaluation below only reads the table.
        unbuilt.clear();
        for (const Entry *e : batch)
            if (!subs[e->shape] &&
                std::find(unbuilt.begin(), unbuilt.end(), e->shape) ==
                    unbuilt.end())
                unbuilt.push_back(e->shape);
        if (!unbuilt.empty()) {
            parallel::parallelFor(unbuilt.size(), [&](std::size_t i) {
                const Shape &sh = shapes[unbuilt[i]];
                subs[unbuilt[i]].emplace(sh.rows, sh.cols, ports,
                                         _params.cellType, _tech);
            });
            built += unbuilt.size();
        }
        slots.resize(batch.size());
        parallel::parallelFor(batch.size(), [&](std::size_t i) {
            const Entry &e = *batch[i];
            slots[i] = evaluateWith(e.org, e.geom, *subs[e.shape]);
        });
        for (std::size_t i = 0; i < batch.size(); ++i) {
            Candidate c = std::move(slots[i]);
            const double actual[kMetrics] = {
                c.res.accessDelay,
                c.res.readEnergy + c.res.searchEnergy,
                c.res.subthresholdLeakage,
                c.res.area,
                c.res.cycleTime};
            for (int m = 0; m < kMetrics; ++m)
                runMin[m] = std::min(runMin[m], actual[m]);
            if ((target <= 0.0 || c.res.cycleTime <= target) &&
                c.res.area <= weights.maxAreaRatio * lbBest[kArea]) {
                double upper = 0.0;
                for (int m = 0; m < kMetrics; ++m)
                    upper += w[m] * actual[m] / lbBest[m];
                safeScore = std::min(safeScore, upper);
            }
            out.emplace_back(batch[i]->idx, std::move(c));
        }
    }
    g_pruned.fetch_add(pruned, std::memory_order_relaxed);
    g_evaluated.fetch_add(out.size(), std::memory_order_relaxed);
    g_subarrays.fetch_add(built, std::memory_order_relaxed);

    // Restore canonical order so selection tie-breaks are unchanged.
    std::sort(out.begin(), out.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    cands.reserve(out.size());
    for (auto &p : out)
        cands.push_back(std::move(p.second));
}

void
ArrayModel::selectBest(std::vector<Candidate> &cands,
                       const OptimizationWeights &weights)
{
    // Normalize each metric by the best achieved value, then pick the
    // lowest weighted sum, honoring the cycle-time constraint.
    double best_delay = std::numeric_limits<double>::max();
    double best_dyn = best_delay, best_leak = best_delay;
    double best_area = best_delay, best_cycle = best_delay;
    for (const auto &c : cands) {
        best_delay = std::min(best_delay, c.res.accessDelay);
        best_dyn = std::min(best_dyn,
                            c.res.readEnergy + c.res.searchEnergy);
        best_leak = std::min(best_leak, c.res.subthresholdLeakage);
        best_area = std::min(best_area, c.res.area);
        best_cycle = std::min(best_cycle, c.res.cycleTime);
    }

    const double target = _params.targetCycleTime;
    Candidate *best = nullptr;
    double best_score = std::numeric_limits<double>::max();
    bool constrained = false;
    for (int pass = 0; pass < 3 && !best; ++pass) {
        // Pass 0 honors the cycle-time target and the area-deviation
        // constraint; pass 1 drops the timing target (reported via
        // meetsTiming()); pass 2 drops the area constraint too.
        for (auto &c : cands) {
            if (pass == 0 && target > 0.0 && c.res.cycleTime > target)
                continue;
            if (pass < 2 &&
                c.res.area > weights.maxAreaRatio * best_area)
                continue;
            c.score =
                weights.delay * c.res.accessDelay / best_delay +
                weights.dynamic *
                    (c.res.readEnergy + c.res.searchEnergy) / best_dyn +
                weights.leakage * c.res.subthresholdLeakage / best_leak +
                weights.area * c.res.area / best_area +
                weights.cycle * c.res.cycleTime / best_cycle;
            if (c.score < best_score) {
                best_score = c.score;
                best = &c;
                constrained = (pass == 0);
            }
        }
    }

    _result = best->res;
    _meetsTiming = (target <= 0.0) || (constrained &&
                                       _result.cycleTime <= target);
}

void
ArrayModel::optimize(const OptimizationWeights &weights)
{
    MCPAT_SPAN("array.optimize", _params.name);
    cancel::checkpoint();
    std::vector<Candidate> cands;
    if (optimizerPruning())
        searchPruned(weights, cands);
    else
        searchExhaustive(cands);
    panicIf(cands.empty(),
            "array '" + _params.name + "': no feasible organization");
    if (instr::enabled()) {
        static instr::Histogram &candidates =
            instr::Registry::instance().histogram(
                "array.optimize.candidates");
        candidates.record(static_cast<double>(cands.size()));
    }
    selectBest(cands, weights);
}

Report
ArrayModel::makeReport(double frequency, const AccessRates &tdp,
                       const AccessRates &runtime) const
{
    Report r;
    r.name = _params.name;
    r.area = _result.area;
    r.criticalPath = _result.accessDelay;
    r.peakDynamic = frequency *
        (tdp.reads * _result.readEnergy +
         tdp.writes * _result.writeEnergy +
         tdp.searches * _result.searchEnergy) +
        _result.refreshPower;
    r.runtimeDynamic = frequency *
        (runtime.reads * _result.readEnergy +
         runtime.writes * _result.writeEnergy +
         runtime.searches * _result.searchEnergy) +
        _result.refreshPower;
    r.subthresholdLeakage = _result.subthresholdLeakage;
    r.gateLeakage = _result.gateLeakage;
    return r;
}

} // namespace array
} // namespace mcpat
