/**
 * @file
 * XML-to-parameters mapping with strict, located validation.
 *
 * Every <param> value is parsed as a full token (no "64kb"-style
 * truncation), checked against its field-table row's range or enum
 * spellings, and every violation is recorded as a Diagnostic carrying
 * the component id, key, and XML source line.  All problems in a file
 * are collected before loadSystemParams throws one ValidationError
 * summarizing them.
 */

#include "config/xml_loader.hh"

#include <algorithm>
#include <map>
#include <string_view>

#include "common/logging.hh"
#include "common/strict_parse.hh"

namespace mcpat {
namespace config {

namespace {

// Parse one <param> value by its row's rule into @p out: the error
// message, or "" when @p out took the value.

std::string
parse(const std::string &text, const fields::Int &r, int &out)
{
    long long v = 0;
    if (!common::parseLongStrict(text, v)) {
        return "invalid integer '" + text +
               "' (the whole value must be a decimal number)";
    }
    if (v < r.lo || v > r.hi)
        return fields::rangeMessage(text, r);
    out = static_cast<int>(v);
    return {};
}

std::string
parse(const std::string &text, const fields::Real &r, double &out)
{
    double v = 0.0;
    if (!common::parseDoubleStrict(text, v)) {
        return "invalid number '" + text +
               "' (the whole value must be a finite number)";
    }
    if (v < r.lo || v > r.hi)
        return fields::rangeMessage(text, r);
    out = v * r.scale;
    return {};
}

std::string
parse(const std::string &text, const fields::Flag &, bool &out)
{
    if (common::parseBoolStrict(text, out))
        return {};
    return "invalid boolean '" + text + "' (use 1/0, true/false, or yes/no)";
}

template <class E>
std::string
parse(const std::string &text, const fields::OneOf<E> &r, E &out)
{
    for (const fields::Spelling<E> &s : r.spellings) {
        if (text == s.name) {
            out = s.value;
            return {};
        }
    }
    return fields::spellingMessage(text, r);
}

/**
 * One component's <param> entries, read through field tables.  A
 * failure is a located diagnostic and leaves the member at its
 * previous value, so garbage never clobbers a default; entries no row
 * read are reported as unknown when the reader goes.
 */
class ParamReader
{
  public:
    ParamReader(const XmlNode &node, DiagnosticList &diags)
        : _diags(diags), _line(node.line)
    {
        _component = node.attr("id").empty() ? node.attr("type")
                                             : node.attr("id");
        for (const XmlNode *p : node.childrenNamed("param")) {
            if (!p->hasAttr("name") || !p->hasAttr("value")) {
                _diags.add(Severity::Error, _component, "",
                           "<param> needs name and value attributes",
                           p->line);
                continue;
            }
            _values[p->attr("name")] = {p->attr("value"), p->line};
        }
    }

    ParamReader(const ParamReader &) = delete;
    ParamReader &operator=(const ParamReader &) = delete;

    ~ParamReader()
    {
        for (const auto &[key, entry] : _values) {
            if (!entry.read) {
                _diags.add(Severity::Warning, _component, key,
                           "unknown param '" + key + "'", entry.line);
            }
        }
    }

    /** Name each missing required key of @p table, then apply its
     *  rows to @p obj in table order. */
    template <class Table, class P>
    void
    read(const Table &table, P &obj)
    {
        table([this](const auto &f, auto &) {
            if (f.required && !_values.contains(f.key)) {
                _diags.add(Severity::Error, _component, f.key,
                           "required param '" + std::string(f.key) +
                               "' is missing", _line);
            }
        }, obj);
        table(*this, obj);
    }

    /** Apply one row to its entry, when the component has one. */
    template <class Rule, class T>
    void
    operator()(const fields::Field<Rule> &f, T &out)
    {
        const auto it = _values.find(std::string_view(f.key));
        if (it == _values.end())
            return;
        Entry &e = it->second;
        e.read = true;
        const std::string error = parse(e.value, f.rule, out);
        if (!error.empty())
            _diags.add(Severity::Error, _component, f.key, error, e.line);
    }

  private:
    struct Entry
    {
        std::string value;
        int line = 0;
        bool read = false;
    };

    std::map<std::string, Entry, std::less<>> _values;
    std::string _component;
    DiagnosticList &_diags;
    int _line = 0;
};

} // namespace

LoadResult
loadSystemParams(const XmlNode &root)
{
    fatalIf(root.tag != "component" || root.attr("type") != "System",
            "root element must be <component type=\"System\">");

    LoadResult out;
    chip::SystemParams &s = out.system;
    s.name = root.hasAttr("id") ? root.attr("id") : s.name;
    DiagnosticList &diags = out.diagnostics;

    ParamReader(root, diags).read(chip::kSystemFields, s);

    bool saw_core = false;
    for (const XmlNode *comp : root.childrenNamed("component")) {
        const std::string &type = comp->attr("type");
        const auto load = [&](const auto &table, auto &obj) {
            ParamReader(*comp, diags).read(table, obj);
        };
        if (type == "Core") {
            load(core::kCoreFields, s.core);
            saw_core = true;
        } else if (type == "L2" || type == "L3") {
            int &count = type == "L2" ? s.numL2 : s.numL3;
            uncore::SharedCacheParams &l = type == "L2" ? s.l2 : s.l3;
            count = 1;
            ParamReader p(*comp, diags);
            p(chip::kCacheCountField, count);
            p.read(uncore::kSharedCacheFields, l);
            l.name = comp->attr("id").empty() ? l.name : comp->attr("id");
        } else if (type == "Directory") {
            s.hasDirectory = true;
            load(uncore::kDirectoryFields, s.directory);
        } else if (type == "Noc") {
            s.hasNoc = true;
            load(uncore::kNocFields, s.noc);
        } else if (type == "MemoryController") {
            s.hasMemCtrl = true;
            load(uncore::kMemCtrlFields, s.memCtrl);
        } else if (type == "ChipIo") {
            s.hasIo = true;
            load(uncore::kChipIoFields, s.io);
        } else {
            diags.add(Severity::Warning, s.name, "",
                      "unknown component type '" + type + "'",
                      comp->line);
        }
    }
    if (!saw_core) {
        diags.add(Severity::Error, s.name, "",
                  "configuration has no <component type=\"Core\">",
                  root.line);
    }

    // Legacy string mirror of the Warning-severity diagnostics.
    for (const auto &d : diags) {
        if (d.severity != Severity::Warning)
            continue;
        if (!d.key.empty()) {
            out.warnings.push_back("unknown param '" + d.key +
                                   "' in component '" + d.component +
                                   "'");
        } else {
            out.warnings.push_back(d.message);
        }
    }

    diags.throwIfErrors("configuration '" + s.name + "'");
    return out;
}

LoadResult
loadSystemParamsFromFile(const std::string &path)
{
    try {
        return loadSystemParams(parseXmlFile(path));
    } catch (const ValidationError &e) {
        // Re-key the summary on the file path (more useful than the
        // config's self-declared name when batching many files).
        throw ValidationError(path, e.diagnostics());
    }
}

namespace {

/**
 * Read the <stat> entries of one component into a name->value map.
 * Malformed or non-finite values are located errors — a runtime
 * counter that does not parse must not silently fall back to TDP
 * defaults.
 */
std::map<std::string, double>
readStats(const XmlNode &node, DiagnosticList &diags)
{
    const std::string component = node.attr("id").empty()
        ? node.attr("type")
        : node.attr("id");
    std::map<std::string, double> out;
    for (const XmlNode *st : node.childrenNamed("stat")) {
        if (!st->hasAttr("name") || !st->hasAttr("value")) {
            diags.add(Severity::Error, component, "",
                      "<stat> needs name and value attributes",
                      st->line);
            continue;
        }
        double v = 0.0;
        if (!common::parseDoubleStrict(st->attr("value"), v)) {
            diags.add(Severity::Error, component, st->attr("name"),
                      "invalid stat value '" + st->attr("value") +
                          "' (the whole value must be a finite number)",
                      st->line);
            continue;
        }
        if (v < 0.0) {
            diags.add(Severity::Error, component, st->attr("name"),
                      "negative stat value '" + st->attr("value") +
                          "' (counters cannot run backwards)",
                      st->line);
            continue;
        }
        out[st->attr("name")] = v;
    }
    return out;
}

/** counters[name] / cycles, or the fallback when the stat is absent. */
double
rate(const std::map<std::string, double> &counters,
     const std::string &name, double cycles, double fallback)
{
    auto it = counters.find(name);
    if (it == counters.end())
        return fallback;
    fatalIf(it->second < 0.0, "negative stat '" + name + "'");
    return it->second / cycles;
}

/** Apply a core component's simulator counters over the TDP defaults. */
void
applyCoreCounters(const std::map<std::string, double> &counters,
                  const chip::SystemParams &sys, core::CoreStats &c)
{
    auto cyc = counters.find("total_cycles");
    if (cyc == counters.end())
        return;  // no counters: keep the defaults
    fatalIf(cyc->second <= 0.0, "total_cycles must be positive");
    const double cycles = cyc->second;

    const double ipc =
        rate(counters, "committed_instructions", cycles, c.commits);
    c.commits = ipc;
    c.fetches = rate(counters, "fetched_instructions", cycles,
                     ipc * 1.1);
    c.decodes = c.fetches;
    if (sys.core.outOfOrder) {
        c.renames = c.decodes;
        c.dispatches = c.decodes;
    }
    c.intOps = rate(counters, "int_instructions", cycles, c.intOps);
    c.fpOps = rate(counters, "fp_instructions", cycles, c.fpOps);
    c.mulOps = rate(counters, "mul_instructions", cycles, c.mulOps);
    c.branches =
        rate(counters, "branch_instructions", cycles, c.branches);
    const double mispred =
        rate(counters, "branch_mispredictions", cycles, 0.0);
    (void)mispred;  // flush energy rides in the fetch over-rate
    c.loads = rate(counters, "loads", cycles, c.loads);
    c.stores = rate(counters, "stores", cycles, c.stores);

    c.intRegReads = 1.6 * (c.intOps + c.mulOps + c.loads + c.stores);
    c.intRegWrites = 0.8 * (c.intOps + c.mulOps + c.loads);
    c.fpRegReads = 1.6 * c.fpOps;
    c.fpRegWrites = 0.8 * c.fpOps;
    if (sys.core.outOfOrder) {
        c.intIssues = c.intOps + c.mulOps + c.loads + c.stores +
                      c.branches;
        c.fpIssues = c.fpOps;
    }
    c.bypasses = ipc * 0.5;

    const double ic_acc =
        rate(counters, "icache_accesses", cycles,
             c.icacheRates.accesses());
    const double ic_miss =
        rate(counters, "icache_misses", cycles,
             c.icacheRates.readMisses);
    c.icacheRates.readHits = std::max(0.0, ic_acc - ic_miss);
    c.icacheRates.readMisses = ic_miss;
    c.icacheRates.writeHits = 0.0;
    c.icacheRates.writeMisses = 0.0;

    const double dc_acc =
        rate(counters, "dcache_accesses", cycles,
             c.dcacheRates.accesses());
    const double dc_miss =
        rate(counters, "dcache_misses", cycles,
             c.dcacheRates.misses());
    const double load_frac =
        c.loads / std::max(1e-12, c.loads + c.stores);
    c.dcacheRates.readHits =
        std::max(0.0, (dc_acc - dc_miss) * load_frac);
    c.dcacheRates.writeHits =
        std::max(0.0, (dc_acc - dc_miss) * (1.0 - load_frac));
    c.dcacheRates.readMisses = dc_miss * load_frac;
    c.dcacheRates.writeMisses = dc_miss * (1.0 - load_frac);

    c.itlbAccesses =
        rate(counters, "itlb_accesses", cycles, ic_acc);
    c.dtlbAccesses =
        rate(counters, "dtlb_accesses", cycles, dc_acc);
    c.itlbMisses = c.itlbAccesses * 0.001;
    c.dtlbMisses = c.dtlbAccesses * 0.001;

    // Utilization-derived secondary knobs.
    const double busy =
        std::min(1.0, ipc / std::max(1.0, 0.8 * sys.core.issueWidth));
    c.pipelineActivity = 0.1 + 0.25 * busy;
    c.clockGating = 0.35 + 0.65 * busy;
    if (sys.core.powerGating)
        c.sleepFraction = rate(counters, "gated_cycles", cycles, 0.0);
}

/** Apply a shared-cache component's counters. */
void
applyCacheCounters(const XmlNode &node, double cycles,
                   array::CacheRates &r, DiagnosticList &diags)
{
    const auto counters = readStats(node, diags);
    if (counters.empty() || cycles <= 0.0)
        return;
    const double ra =
        rate(counters, "read_accesses", cycles, r.readHits +
                                                    r.readMisses);
    const double rm =
        rate(counters, "read_misses", cycles, r.readMisses);
    const double wa =
        rate(counters, "write_accesses", cycles, r.writeHits +
                                                     r.writeMisses);
    const double wm =
        rate(counters, "write_misses", cycles, r.writeMisses);
    r.readHits = std::max(0.0, ra - rm);
    r.readMisses = rm;
    r.writeHits = std::max(0.0, wa - wm);
    r.writeMisses = wm;
}

} // namespace

stats::ChipStats
loadChipStats(const XmlNode &root, const chip::SystemParams &params)
{
    stats::ChipStats s = stats::ChipStats::tdp(params);
    DiagnosticList diags;

    // --- Pass 1: per-component simulator counters. -----------------------
    double core_cycles = 0.0;
    for (const XmlNode *comp : root.childrenNamed("component")) {
        const std::string &type = comp->attr("type");
        if (type == "Core") {
            const auto counters = readStats(*comp, diags);
            applyCoreCounters(counters, params, s.perCore);
            auto it = counters.find("total_cycles");
            if (it != counters.end())
                core_cycles = it->second;
            s.perGroup.clear();  // counters describe the average core
        } else if (type == "L2") {
            applyCacheCounters(*comp, core_cycles, s.l2Rates, diags);
        } else if (type == "L3") {
            applyCacheCounters(*comp, core_cycles, s.l3Rates, diags);
        } else if (type == "Noc" && core_cycles > 0.0) {
            const auto counters = readStats(*comp, diags);
            auto it = counters.find("total_flits");
            if (it != counters.end())
                s.nocFlitsPerCycle = it->second / core_cycles;
        } else if (type == "MemoryController" && core_cycles > 0.0) {
            const auto counters = readStats(*comp, diags);
            auto it = counters.find("bytes_transferred");
            if (it != counters.end()) {
                uncore::MemCtrlParams mc = params.memCtrl;
                const double peak = (mc.peakBandwidth > 0.0
                    ? mc.peakBandwidth
                    : mc.busClock * 2.0 * (mc.dataBusBits / 8.0)) *
                    mc.channels;
                const double seconds =
                    core_cycles / params.core.clockRate;
                s.mcUtilization = std::min(
                    1.0, it->second / seconds / peak);
            }
        }
    }

    // --- Pass 2: global activity scaling. --------------------------------
    double activity_scale = 1.0;
    for (const XmlNode *st : root.childrenNamed("stat")) {
        if (st->attr("name") != "activity_scale")
            continue;
        double v = 1.0;
        if (!common::parseDoubleStrict(st->attr("value"), v) ||
            v < 0.0) {
            diags.add(Severity::Error, params.name, "activity_scale",
                      "invalid stat value '" + st->attr("value") +
                          "' (must be a finite number >= 0)",
                      st->line);
            continue;
        }
        activity_scale = v;
    }
    diags.throwIfErrors("runtime statistics for '" + params.name +
                        "'");

    s.perCore = s.perCore.scaled(activity_scale);
    s.nocFlitsPerCycle *= activity_scale;
    s.mcUtilization *= activity_scale;
    s.ioActivityScale *= activity_scale;

    auto scale_cache = [&](array::CacheRates &r) {
        r.readHits *= activity_scale;
        r.readMisses *= activity_scale;
        r.writeHits *= activity_scale;
        r.writeMisses *= activity_scale;
    };
    scale_cache(s.l2Rates);
    scale_cache(s.l3Rates);
    return s;
}

} // namespace config
} // namespace mcpat
