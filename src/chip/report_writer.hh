/**
 * @file
 * Machine-readable report export: JSON and CSV serializations of the
 * hierarchical report tree, for downstream tooling (plotting, DSE
 * scripts, regression diffs).
 */

#ifndef MCPAT_CHIP_REPORT_WRITER_HH
#define MCPAT_CHIP_REPORT_WRITER_HH

#include <ostream>
#include <string>

#include "common/report.hh"

namespace mcpat {
namespace chip {

/**
 * The report tree as a JSON document, rendered into one string.
 *
 * Schema: every node is an object with `name`, `area_mm2`,
 * `peak_dynamic_w`, `runtime_dynamic_w`, `subthreshold_leakage_w`,
 * `runtime_subthreshold_leakage_w`, `gate_leakage_w`,
 * `critical_path_ns`, and a `children` array.  The root object
 * additionally carries a `valid` flag.
 *
 * Numbers are written with kRoundTripPrecision (17) significant digits
 * (appendNumber) so a parse round trip reproduces the doubles exactly.
 * JSON has no NaN/Infinity literals: any non-finite metric is emitted
 * as `null` and the root `valid` flag becomes false, so downstream
 * tooling can both parse the document and detect that it is
 * incomplete.
 *
 * @param instrumentation pre-rendered run-manifest JSON object (see
 *        instr::runManifestJson) to embed as an "instrumentation"
 *        section on the root node; null/empty (the default) leaves the
 *        document byte-identical to builds without instrumentation.
 */
std::string renderReportJson(const Report &report,
                             const std::string *instrumentation = nullptr);

/**
 * The report tree as CSV (one row per node, depth-first), with a
 * `path` column of slash-joined component names; numbers as in
 * renderReportJson, non-finite ones as empty cells.
 */
std::string renderReportCsv(const Report &report);

/** Write renderReportJson's document to @p os. */
void writeReportJson(std::ostream &os, const Report &report,
                     const std::string *instrumentation = nullptr);

/** Write renderReportCsv's document to @p os. */
void writeReportCsv(std::ostream &os, const Report &report);

/**
 * Emit one numeric CSV field.  Finite values print by appendNumber at
 * the stream's current precision (its other format flags do not
 * apply); non-finite values emit an *empty* field (the CSV counterpart
 * of the JSON writer's `null`) instead of the "nan"/"inf" text
 * operator<< would produce, which breaks downstream CSV parsers.
 * Shared by the batch summary and the sweep search's points.csv.
 */
void writeCsvNumber(std::ostream &os, double v);

} // namespace chip
} // namespace mcpat

#endif // MCPAT_CHIP_REPORT_WRITER_HH
