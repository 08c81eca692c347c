/**
 * @file
 * JSON/CSV report serialization.
 */

#include "chip/report_writer.hh"

#include <cmath>

#include "common/diagnostics.hh"
#include "common/units.hh"

namespace mcpat {
namespace chip {

namespace {

/**
 * The root `valid` flag: false when any metric in the tree is
 * non-finite, i.e. when the document carries a `null` in its place.
 */
bool
reportAllFinite(const Report &r)
{
    if (!std::isfinite(r.area) || !std::isfinite(r.peakDynamic) ||
        !std::isfinite(r.runtimeDynamic) ||
        !std::isfinite(r.subthresholdLeakage) ||
        !std::isfinite(r.runtimeSubLeak()) ||
        !std::isfinite(r.gateLeakage) || !std::isfinite(r.criticalPath))
        return false;
    for (const auto &c : r.children)
        if (!reportAllFinite(c))
            return false;
    return true;
}

/** `<indent>  "<name>": <number>,` — one numeric member of a node. */
void
appendJsonMember(std::string &out, int indent, const char *name,
                 double v)
{
    out.append(indent + 2, ' ');
    out += '"';
    out += name;
    out += "\": ";
    appendJsonNumber(out, v, kRoundTripPrecision);
    out += ",\n";
}

void
appendJsonNode(std::string &out, const Report &r, int indent,
               const bool *root_valid = nullptr,
               const std::string *instrumentation = nullptr)
{
    out.append(indent, ' ');
    out += "{\n";
    if (root_valid) {
        out.append(indent, ' ');
        out += *root_valid ? "  \"valid\": true,\n"
                           : "  \"valid\": false,\n";
    }
    if (instrumentation && !instrumentation->empty()) {
        out.append(indent, ' ');
        out += "  \"instrumentation\":\n";
        out += *instrumentation;
        out += ",\n";
    }
    out.append(indent, ' ');
    out += "  \"name\": \"";
    appendJsonEscaped(out, r.name);
    out += "\",\n";
    appendJsonMember(out, indent, "area_mm2", r.area / mm2);
    appendJsonMember(out, indent, "peak_dynamic_w", r.peakDynamic);
    appendJsonMember(out, indent, "runtime_dynamic_w", r.runtimeDynamic);
    appendJsonMember(out, indent, "subthreshold_leakage_w",
                     r.subthresholdLeakage);
    appendJsonMember(out, indent, "runtime_subthreshold_leakage_w",
                     r.runtimeSubLeak());
    appendJsonMember(out, indent, "gate_leakage_w", r.gateLeakage);
    appendJsonMember(out, indent, "critical_path_ns", r.criticalPath / ns);
    out.append(indent, ' ');
    out += "  \"children\": [";
    if (r.children.empty()) {
        out += "]\n";
    } else {
        out += "\n";
        for (std::size_t i = 0; i < r.children.size(); ++i) {
            appendJsonNode(out, r.children[i], indent + 4);
            out += i + 1 < r.children.size() ? ",\n" : "\n";
        }
        out.append(indent, ' ');
        out += "  ]\n";
    }
    out.append(indent, ' ');
    out += "}";
}

/** One numeric CSV cell: empty when non-finite (see writeCsvNumber). */
void
appendCsvCell(std::string &out, double v)
{
    out += ',';
    if (std::isfinite(v))
        appendNumber(out, v, kRoundTripPrecision);
}

/** One row per node; @p path holds the parent's slash-joined path. */
void
appendCsvNode(std::string &out, const Report &r, std::string &path)
{
    const std::size_t parent_len = path.size();
    if (parent_len)
        path += '/';
    path += r.name;
    appendCsvField(out, path);
    appendCsvCell(out, r.area / mm2);
    appendCsvCell(out, r.peakDynamic);
    appendCsvCell(out, r.runtimeDynamic);
    appendCsvCell(out, r.subthresholdLeakage);
    appendCsvCell(out, r.runtimeSubLeak());
    appendCsvCell(out, r.gateLeakage);
    appendCsvCell(out, r.criticalPath / ns);
    out += '\n';
    for (const auto &c : r.children)
        appendCsvNode(out, c, path);
    path.resize(parent_len);
}

} // namespace

void
writeCsvNumber(std::ostream &os, double v)
{
    // Non-finite: leave the field empty.  operator<< would print
    // "nan"/"inf", which CSV consumers (pandas, spreadsheet imports)
    // either reject or silently coerce to strings; an empty field is
    // the conventional "missing value" both handle.
    if (!std::isfinite(v))
        return;
    std::string cell;
    appendNumber(cell, v, static_cast<int>(os.precision()));
    os << cell;
}

// Each thread renders into its own scratch string, which keeps the
// capacity of the largest document it has rendered, and the caller gets
// an exact-size copy: results keep their documents (the server caches
// hundreds), so no slack outlives the call and no render reallocates
// once the scratch has grown.

std::string
renderReportJson(const Report &report,
                 const std::string *instrumentation)
{
    thread_local std::string out;
    out.clear();
    const bool all_finite = reportAllFinite(report);
    appendJsonNode(out, report, 0, &all_finite, instrumentation);
    out += "\n";
    return out;
}

std::string
renderReportCsv(const Report &report)
{
    thread_local std::string out;
    out.clear();
    out += "path,area_mm2,peak_dynamic_w,runtime_dynamic_w,"
           "subthreshold_leakage_w,runtime_subthreshold_leakage_w,"
           "gate_leakage_w,critical_path_ns\n";
    std::string path;
    appendCsvNode(out, report, path);
    return out;
}

void
writeReportJson(std::ostream &os, const Report &report,
                const std::string *instrumentation)
{
    os << renderReportJson(report, instrumentation);
}

void
writeReportCsv(std::ostream &os, const Report &report)
{
    os << renderReportCsv(report);
}

} // namespace chip
} // namespace mcpat
