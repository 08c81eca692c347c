/**
 * @file
 * Consistency checks over a fully-assembled SystemParams.
 *
 * Single-field rules come from the same field tables the XML loader
 * reads through (common/field_table.hh), so a programmatic config
 * meets the ranges an XML one does.  By hand are only the rules no row
 * can state: cache geometry that divides evenly, block sizes that are
 * powers of two, pipeline widths that are ordered sensibly, an
 * interconnect whose node count matches the population it connects,
 * and a positive core population.  Everything found is reported; the
 * caller decides whether warnings are fatal (see Severity semantics in
 * common/diagnostics.hh).
 */

#include <cmath>
#include <string>

#include "chip/system_params.hh"
#include "common/logging.hh"

namespace mcpat {
namespace chip {

namespace {

using namespace fields;

/**
 * The checks of one component instance: its table's rows beside the
 * struct defaults (a field at its default is never flagged), then hand
 * rules.  A finding whose key an earlier one already names is dropped,
 * so each field is reported once; messages are built only on failure.
 */
class ComponentCheck
{
  public:
    ComponentCheck(DiagnosticList &diags, const std::string &component)
        : _diags(diags), _component(component), _first(diags.size())
    {}

    /** Check @p table's rows on @p p; true while this instance has
     *  no finding. */
    template <class Table, class P>
    bool
    rows(const Table &table, const P &p, const P &defaults)
    {
        table(*this, p, defaults);
        return _diags.size() == _first;
    }

    void
    operator()(const Field<Int> &f, int v, int d)
    {
        if (v != d && (v < f.rule.lo || v > f.rule.hi))
            rule(Severity::Error, f.key,
                 rangeMessage(std::to_string(v), f.rule));
    }

    void
    operator()(const Field<Real> &f, double v, double d)
    {
        const Real &r = f.rule;
        if (v != d && !(v >= r.lo * r.scale && v <= r.hi * r.scale)) {
            std::string value;
            appendNumber(value, v / r.scale, kRoundTripPrecision);
            rule(Severity::Error, f.key, rangeMessage(value, r));
        }
    }

    void operator()(const Field<Flag> &, bool, bool) {}

    template <class E>
    void
    operator()(const Field<OneOf<E>> &f, E v, E d)
    {
        for (const Spelling<E> &s : f.rule.spellings)
            if (v == d || v == s.value)
                return;
        rule(Severity::Error, f.key,
             spellingMessage(std::to_string(static_cast<int>(v)), f.rule));
    }

    void
    rule(Severity severity, const char *key, const std::string &message)
    {
        for (std::size_t i = _first; i < _diags.size(); ++i)
            if (_diags.items()[i].key == key)
                return;
        _diags.add(severity, _component, key, message);
    }

  private:
    DiagnosticList &_diags;
    const std::string &_component;
    std::size_t _first;
};

/**
 * A set must hold a whole number of (block x assoc) frames; a capacity
 * that does not divide evenly means the stated size and the modeled
 * size silently disagree.  @p assoc 0 means fully associative, where
 * only block alignment matters.
 */
void
checkCacheGeometry(ComponentCheck &check, const char *size_key,
                   double capacity_bytes, int block_bytes, int assoc)
{
    if (block_bytes <= 0 || capacity_bytes <= 0)
        return;  // CacheParams::validate reports these.
    const double frame = static_cast<double>(block_bytes) *
                         (assoc > 0 ? assoc : 1);
    const double sets = capacity_bytes / frame;
    if (std::abs(sets - std::round(sets)) > 1e-9) {
        check.rule(Severity::Error, size_key,
                   "capacity is not a whole number of sets (capacity " +
                       std::to_string(static_cast<long long>(capacity_bytes)) +
                       " B / (block " + std::to_string(block_bytes) +
                       " B x assoc " + std::to_string(assoc > 0 ? assoc : 1) +
                       ") is fractional)");
    }
}

void
checkCore(DiagnosticList &diags, const core::CoreParams &c,
          const core::CoreParams &fallback, int count)
{
    ComponentCheck check(diags, c.name);
    // Per-core invariants live with CoreParams; surface them as
    // located diagnostics instead of a bare exception.  validate()
    // stops at its first failure and restates several rows, so it runs
    // only when every row holds.
    if (check.rows(core::kCoreFields, c, fallback)) {
        try {
            c.validate();
        } catch (const ConfigError &e) {
            diags.add(Severity::Error, c.name, "", e.what());
        }
    }
    if (count < 1) {
        check.rule(Severity::Error, "count",
                   "core group has a non-positive population (" +
                       std::to_string(count) + ")");
    }
    checkCacheGeometry(check, "icache_kb", c.icache.capacityBytes,
                       c.icache.blockBytes, c.icache.assoc);
    checkCacheGeometry(check, "dcache_kb", c.dcache.capacityBytes,
                       c.dcache.blockBytes, c.dcache.assoc);

    // A commit stage wider than issue can be intentional (the 21364
    // retires 8 while issuing 6), but more often it is a transposed
    // pair of numbers — flag it, don't reject it.
    if (c.commitWidth > c.issueWidth) {
        check.rule(Severity::Warning, "commit_width",
                   "commit width (" + std::to_string(c.commitWidth) +
                       ") exceeds issue width (" +
                       std::to_string(c.issueWidth) +
                       "); retire can never be the steady-state limiter");
    }
    if (c.fetchWidth < c.decodeWidth) {
        check.rule(Severity::Warning, "fetch_width",
                   "fetch width (" + std::to_string(c.fetchWidth) +
                       ") below decode width (" +
                       std::to_string(c.decodeWidth) +
                       "); decode will starve");
    }
}

/** An L2 or L3: its count (0 means absent), then its rows. */
void
checkSharedCache(DiagnosticList &diags, const uncore::SharedCacheParams &c,
                 const uncore::SharedCacheParams &fallback, int count)
{
    ComponentCheck check(diags, c.name);
    check(kCacheCountField, count, 0);  // 0: no such level
    if (count <= 0)
        return;
    check.rows(uncore::kSharedCacheFields, c, fallback);
    if (c.blockBytes <= 0 || (c.blockBytes & (c.blockBytes - 1)) != 0) {
        check.rule(Severity::Error, "block",
                   "block size must be a power of two (got " +
                       std::to_string(c.blockBytes) + ")");
    }
    checkCacheGeometry(check, "size_kb", c.capacityBytes, c.blockBytes,
                       c.assoc);
}

void
checkNoc(DiagnosticList &diags, const SystemParams &p,
         const uncore::NocParams &fallback)
{
    const uncore::NocParams &n = p.noc;
    ComponentCheck check(diags, n.name);
    check.rows(uncore::kNocFields, n, fallback);

    // For grid topologies the node count should relate to the
    // population it connects: one node per core (or per core cluster),
    // or one per shared-cache bank.  Buses and crossbars routinely
    // span asymmetric mixes (Niagara's crossbar joins 8 cores to 4 L2
    // banks), so only grids are checked — and only advisorily, since
    // concentrated meshes are legitimate.
    const bool grid = n.topology == uncore::NocTopology::Mesh2D ||
                      n.topology == uncore::NocTopology::Torus2D;
    if (grid && n.nodesX >= 1 && n.nodesY >= 1) {
        const int nodes = n.nodes();
        const int cores = p.totalCores();
        const bool matches_cores =
            cores >= 1 && (cores % nodes == 0 || nodes % cores == 0);
        const bool matches_l2 = p.numL2 > 0 && nodes == p.numL2;
        if (!matches_cores && !matches_l2) {
            check.rule(Severity::Warning, "nodes_x",
                       "mesh of " + std::to_string(nodes) +
                           " nodes is unrelated to the core count (" +
                           std::to_string(cores) +
                           ") or L2 instance count (" +
                           std::to_string(p.numL2) + ")");
        }
    }
}

} // namespace

DiagnosticList
SystemParams::check() const
{
    // Struct defaults: a field left at its default is never flagged.
    static const SystemParams fallback;
    DiagnosticList diags;

    // --- Technology operating point and core population. ----------------
    ComponentCheck system(diags, name);
    system.rows(kSystemFields, *this, fallback);
    if (totalCores() < 1) {
        system.rule(Severity::Error, "core_count",
                    "system needs at least one core");
    }
    if (coreGroups.empty())
        checkCore(diags, core, fallback.core, numCores);
    for (const auto &g : coreGroups)
        checkCore(diags, g.core, fallback.core, g.count);

    // --- Uncore: only the components present. ------------------------
    checkSharedCache(diags, l2, fallback.l2, numL2);
    checkSharedCache(diags, l3, fallback.l3, numL3);
    if (hasDirectory) {
        ComponentCheck(diags, directory.name)
            .rows(uncore::kDirectoryFields, directory, fallback.directory);
    }
    if (hasNoc)
        checkNoc(diags, *this, fallback.noc);
    if (hasMemCtrl) {
        ComponentCheck(diags, memCtrl.name)
            .rows(uncore::kMemCtrlFields, memCtrl, fallback.memCtrl);
    }
    if (hasIo) {
        ComponentCheck(diags, io.name)
            .rows(uncore::kChipIoFields, io, fallback.io);
    }
    return diags;
}

void
SystemParams::validate() const
{
    check().throwIfErrors("system '" + name + "'");
}

} // namespace chip
} // namespace mcpat
