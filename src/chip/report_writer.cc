/**
 * @file
 * JSON/CSV report serialization.
 */

#include "chip/report_writer.hh"

#include <cmath>
#include <iomanip>

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

void
writeJsonNode(std::ostream &os, const Report &r, int indent,
              const bool *root_valid = nullptr,
              const std::string *instrumentation = nullptr)
{
    const std::string pad(indent, ' ');
    os << pad << "{\n";
    if (root_valid) {
        os << pad << "  \"valid\": " << (*root_valid ? "true" : "false")
           << ",\n";
    }
    if (instrumentation && !instrumentation->empty()) {
        os << pad << "  \"instrumentation\":\n" << *instrumentation
           << ",\n";
    }
    os << pad << "  \"name\": \"" << jsonEscapeString(r.name) << "\",\n";
    os << pad << "  \"area_mm2\": ";
    writeJsonNumber(os, r.area / mm2);
    os << ",\n" << pad << "  \"peak_dynamic_w\": ";
    writeJsonNumber(os, r.peakDynamic);
    os << ",\n" << pad << "  \"runtime_dynamic_w\": ";
    writeJsonNumber(os, r.runtimeDynamic);
    os << ",\n" << pad << "  \"subthreshold_leakage_w\": ";
    writeJsonNumber(os, r.subthresholdLeakage);
    os << ",\n" << pad << "  \"runtime_subthreshold_leakage_w\": ";
    writeJsonNumber(os, r.runtimeSubLeak());
    os << ",\n" << pad << "  \"gate_leakage_w\": ";
    writeJsonNumber(os, r.gateLeakage);
    os << ",\n" << pad << "  \"critical_path_ns\": ";
    writeJsonNumber(os, r.criticalPath / ns);
    os << ",\n" << pad << "  \"children\": [";
    if (r.children.empty()) {
        os << "]\n";
    } else {
        os << "\n";
        for (std::size_t i = 0; i < r.children.size(); ++i) {
            writeJsonNode(os, r.children[i], indent + 4);
            os << (i + 1 < r.children.size() ? ",\n" : "\n");
        }
        os << pad << "  ]\n";
    }
    os << pad << "}";
}

void
writeCsvNode(std::ostream &os, const Report &r, const std::string &path)
{
    const std::string full =
        path.empty() ? r.name : path + "/" + r.name;
    os << csvEscapeField(full) << ',';
    writeCsvNumber(os, r.area / mm2);
    os << ',';
    writeCsvNumber(os, r.peakDynamic);
    os << ',';
    writeCsvNumber(os, r.runtimeDynamic);
    os << ',';
    writeCsvNumber(os, r.subthresholdLeakage);
    os << ',';
    writeCsvNumber(os, r.runtimeSubLeak());
    os << ',';
    writeCsvNumber(os, r.gateLeakage);
    os << ',';
    writeCsvNumber(os, r.criticalPath / ns);
    os << '\n';
    for (const auto &c : r.children)
        writeCsvNode(os, c, full);
}

} // namespace

void
writeCsvNumber(std::ostream &os, double v)
{
    if (std::isfinite(v))
        os << v;
    // Non-finite: leave the field empty.  operator<< would print
    // "nan"/"inf", which CSV consumers (pandas, spreadsheet imports)
    // either reject or silently coerce to strings; an empty field is
    // the conventional "missing value" both handle.
}

void
writeReportJson(std::ostream &os, const Report &report,
                const std::string *instrumentation)
{
    const auto flags = os.flags();
    const auto precision = os.precision();
    // max_digits10: doubles survive a write/parse round trip exactly,
    // so cached and freshly computed reports diff bit-identically.
    os << std::setprecision(17);
    const bool all_finite = reportAllFinite(report);
    writeJsonNode(os, report, 0, &all_finite, instrumentation);
    os << "\n";
    os.flags(flags);
    os.precision(precision);
}

void
writeReportCsv(std::ostream &os, const Report &report)
{
    const auto flags = os.flags();
    const auto precision = os.precision();
    os << std::setprecision(17);
    os << "path,area_mm2,peak_dynamic_w,runtime_dynamic_w,"
          "subthreshold_leakage_w,runtime_subthreshold_leakage_w,"
          "gate_leakage_w,critical_path_ns\n";
    writeCsvNode(os, report, "");
    os.flags(flags);
    os.precision(precision);
}

} // namespace chip
} // namespace mcpat
