/**
 * @file
 * Array organization search and assembly.
 */

#include "array/array_model.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
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

/** log2 of each entry of a table of powers of two. */
template <typename T, std::size_t N>
constexpr std::array<int, N>
exactLog2s(const T (&v)[N])
{
    std::array<int, N> e{};
    for (std::size_t i = 0; i < N; ++i)
        for (double x = v[i]; x != 1.0; x = x < 1.0 ? x * 2 : x / 2)
            e[i] += x < 1.0 ? -1 : 1;
    return e;
}

constexpr auto kPartLog = exactLog2s(kPartitions);
constexpr auto kFoldLog = exactLog2s(kFoldings);
constexpr auto kPartLogs = std::ranges::minmax(kPartLog);
constexpr auto kFoldLogs = std::ranges::minmax(kFoldLog);
/** Least log2(nspd * ndbl) and log2(nspd / ndwl), and their spans. */
constexpr int kRowLog0 = kFoldLogs.min + kPartLogs.min;
constexpr int kColLog0 = kFoldLogs.min - kPartLogs.max;
constexpr int kRowSpan = kFoldLogs.max + kPartLogs.max - kRowLog0 + 1;
constexpr int kColSpan = kFoldLogs.max - kPartLogs.min - kColLog0 + 1;

/** Rows per bank, rounded up; every organization of a solve shares it. */
int
rowsPerBank(const ArrayParams &p)
{
    return static_cast<int>(std::ceil(static_cast<double>(p.totalRows()) /
                                      p.banks));
}

std::atomic<std::uint64_t> g_evaluated{0};
std::atomic<std::uint64_t> g_subarrays{0};
std::atomic<bool> g_shapeTable{true};

/** Mirrors the organization-search counters into registry snapshots. */
[[maybe_unused]] const bool g_prune_collector_registered =
    instr::Registry::instance().addCollector([](instr::Registry &reg) {
        reg.gauge("prune.evaluated")
            .set(static_cast<double>(
                g_evaluated.load(std::memory_order_relaxed)));
        reg.gauge("prune.subarrays")
            .set(static_cast<double>(
                g_subarrays.load(std::memory_order_relaxed)));
    });

} // namespace

bool
optimizerPruning()
{
    return g_shapeTable.load(std::memory_order_relaxed);
}

void
setOptimizerPruning(bool on)
{
    g_shapeTable.store(on, std::memory_order_relaxed);
}

OptimizerSearchStats
optimizerSearchStats()
{
    return {g_evaluated.load(std::memory_order_relaxed), 0,
            g_subarrays.load(std::memory_order_relaxed)};
}

void
resetOptimizerSearchStats()
{
    g_evaluated.store(0, std::memory_order_relaxed);
    g_subarrays.store(0, std::memory_order_relaxed);
}

/** One evaluated organization. */
struct ArrayModel::Candidate
{
    ArrayOrg org;
    ArrayResult res;
    double score = 0.0;
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

/** Whether @p org may split a bank into sub_rows x sub_cols subarrays. */
static bool
feasible(const ArrayOrg &org, int sub_rows, int sub_cols,
         int rows_per_bank, int row_bits)
{
    // Reject degenerate shapes: too small to be a real subarray or too
    // large for acceptable wordline/bitline RC.
    if (sub_rows < 4 || sub_cols < 4 || sub_rows > 1024 || sub_cols > 2048)
        return false;
    // Don't partition beyond the data: keep every subarray meaningful.
    return (org.ndbl == 1 ||
            sub_rows * (org.ndbl - 1) < rows_per_bank / org.nspd) &&
           (org.ndwl == 1 ||
            sub_cols * (org.ndwl - 1) < row_bits * org.nspd);
}

OrgGeometry
orgGeometry(const ArrayOrg &org, int rows_per_bank, int row_bits)
{
    OrgGeometry g;
    g.subRows = static_cast<int>(
        std::ceil(rows_per_bank / org.nspd / org.ndbl));
    g.subCols = static_cast<int>(std::ceil(row_bits * org.nspd / org.ndwl));
    g.feasible = feasible(org, g.subRows, g.subCols, rows_per_bank,
                          row_bits);
    return g;
}

OrgListing
listOrganizations(int rows_per_bank, int row_bits)
{
    // Every partition and folding is a power of two, so orgGeometry's
    // divisions are exact scalings: subRows depends only on
    // a = log2(nspd * ndbl) and subCols only on b = log2(nspd / ndwl).
    // Halving a count of at least 4 always changes it, so a feasible
    // (subRows, subCols) comes from exactly one (a, b) cell, which
    // numbers its shape.
    int sub_rows[kRowSpan], sub_cols[kColSpan], slot[kRowSpan][kColSpan];
    for (int a = 0; a < kRowSpan; ++a)
        sub_rows[a] = static_cast<int>(
            std::ceil(std::ldexp(rows_per_bank, -(a + kRowLog0))));
    for (int b = 0; b < kColSpan; ++b)
        sub_cols[b] = static_cast<int>(
            std::ceil(std::ldexp(row_bits, b + kColLog0)));
    std::fill(&slot[0][0], &slot[0][0] + kRowSpan * kColSpan, -1);

    OrgListing out;
    out.orgs.reserve(std::size(kPartitions) * std::size(kPartitions) *
                     std::size(kFoldings));
    for (std::size_t w = 0; w < std::size(kPartitions); ++w)
        for (std::size_t d = 0; d < std::size(kPartitions); ++d)
            for (std::size_t f = 0; f < std::size(kFoldings); ++f) {
                const ArrayOrg org{kPartitions[w], kPartitions[d],
                                   kFoldings[f]};
                const int a = kFoldLog[f] + kPartLog[d] - kRowLog0;
                const int b = kFoldLog[f] - kPartLog[w] - kColLog0;
                if (!feasible(org, sub_rows[a], sub_cols[b],
                              rows_per_bank, row_bits))
                    continue;
                if (slot[a][b] < 0)
                    slot[a][b] = static_cast<int>(out.shapes++);
                out.orgs.push_back(
                    {org, {sub_rows[a], sub_cols[b], true},
                     static_cast<std::size_t>(slot[a][b])});
            }
    return out;
}

std::optional<ArrayModel::Candidate>
ArrayModel::evaluate(const ArrayOrg &org) const
{
    const OrgGeometry geom =
        orgGeometry(org, rowsPerBank(_params), _params.rowBits());
    if (!geom.feasible)
        return std::nullopt;
    const Subarray sub(geom.subRows, geom.subCols, _params.totalPorts(),
                       _params.cellType, _tech);
    if (_params.cellType != CellType::CAM)
        return evaluateWith(org, geom, sub, nullptr);
    const CamSearch cam(sub, _tech);
    return evaluateWith(org, geom, sub, &cam);
}

ArrayModel::Candidate
ArrayModel::evaluateWith(const ArrayOrg &org, const OrgGeometry &geom,
                         const Subarray &sub, const CamSearch *cam) const
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
    if (cam) {
        // A search interrogates every subarray of one bank.
        search_e = peripheryEnergyFactor * subarrays *
                       cam->energyPerSearch() +
                   htree_in_energy;
        search_delay = htree_delay + global_delay + cam->delay();
        const double sp = _params.searchPorts;
        leak_sub += n_sub_total * cam->subthresholdLeakage() * sp;
        leak_gate += n_sub_total * cam->gateLeakage() * sp;
        area += n_sub_total * cam->area() * sp;
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

void
ArrayModel::searchExhaustive(std::vector<Candidate> &cands) const
{
    // Evaluate the full candidate grid in canonical (ndwl, ndbl, nspd)
    // order, building a fresh Subarray for every feasible organization.
    for (const int ndwl : kPartitions)
        for (const int ndbl : kPartitions)
            for (const double nspd : kFoldings) {
                cancel::checkpoint();
                if (auto c = evaluate({ndwl, ndbl, nspd}))
                    cands.push_back(std::move(*c));
            }
    g_evaluated.fetch_add(cands.size(), std::memory_order_relaxed);
}

void
ArrayModel::searchShapeTable(std::vector<Candidate> &cands) const
{
    // Many organizations share one subarray shape (subRows, subCols),
    // and a shape's Subarray and CAM search path depend on nothing else
    // in the solve, so each shape is built once, where the listing
    // first reaches it.  The candidates come out in canonical grid
    // order, exactly as searchExhaustive lists them, so selection and
    // its tie-breaks are unchanged.
    const OrgListing listing =
        listOrganizations(rowsPerBank(_params), _params.rowBits());
    std::vector<Subarray> subs;
    std::vector<CamSearch> cams;  // per shape, CAM arrays only
    subs.reserve(listing.shapes);
    cands.reserve(listing.orgs.size());
    for (const auto &e : listing.orgs) {
        if (e.shape == subs.size()) {
            subs.emplace_back(e.geom.subRows, e.geom.subCols,
                              _params.totalPorts(), _params.cellType, _tech);
            if (_params.cellType == CellType::CAM)
                cams.emplace_back(subs.back(), _tech);
        }
        cands.push_back(evaluateWith(e.org, e.geom, subs[e.shape],
                                     cams.empty() ? nullptr
                                                  : &cams[e.shape]));
    }
    g_evaluated.fetch_add(cands.size(), std::memory_order_relaxed);
    g_subarrays.fetch_add(subs.size(), std::memory_order_relaxed);
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
        searchShapeTable(cands);
    else
        searchExhaustive(cands);
    if (cands.empty())
        throw ModelError("array '" + _params.name +
                         "': no feasible organization");
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
