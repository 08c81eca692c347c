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
 * Write the report tree as JSON.
 *
 * Schema: every node is an object with `name`, `area_mm2`,
 * `peak_dynamic_w`, `runtime_dynamic_w`, `subthreshold_leakage_w`,
 * `runtime_subthreshold_leakage_w`, `gate_leakage_w`,
 * `critical_path_ns`, and a `children` array.  The root object
 * additionally carries a `valid` flag.
 *
 * Numbers are written with max_digits10 (17) significant digits so a
 * parse round trip reproduces the doubles exactly.  JSON has no
 * NaN/Infinity literals: any non-finite metric is emitted as `null`
 * and the root `valid` flag becomes false, so downstream tooling can
 * both parse the document and detect that it is incomplete.
 *
 * @param instrumentation pre-rendered run-manifest JSON object (see
 *        instr::runManifestJson) to embed as an "instrumentation"
 *        section on the root node; null/empty (the default) leaves the
 *        document byte-identical to builds without instrumentation.
 */
void writeReportJson(std::ostream &os, const Report &report,
                     const std::string *instrumentation = nullptr);

/**
 * Write the report tree as CSV (one row per node, depth-first), with a
 * `path` column of slash-joined component names.
 */
void writeReportCsv(std::ostream &os, const Report &report);

/**
 * Emit one numeric CSV field.  Finite values print through the
 * stream's current precision; non-finite values emit an *empty* field
 * (the CSV counterpart of the JSON writer's `null`) instead of the
 * "nan"/"inf" text operator<< would produce, which breaks downstream
 * CSV parsers.  Shared by the report CSV writer and the batch summary.
 */
void writeCsvNumber(std::ostream &os, double v);

} // namespace chip
} // namespace mcpat

#endif // MCPAT_CHIP_REPORT_WRITER_HH
