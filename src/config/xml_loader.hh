/**
 * @file
 * Mapping from the McPAT-style XML schema to typed system parameters.
 *
 * A <component type="System"> root holds Core, L2, L3, Directory, Noc,
 * MemoryController and ChipIo components (see configs/).  The <param>
 * keys each accepts are the rows of its params struct's field table
 * (common/field_table.hh; kSystemFields, core::kCoreFields, ...).
 *
 * Runtime statistics ride on <stat name="..." value="..."/> entries
 * (see loadChipStats).
 */

#ifndef MCPAT_CONFIG_XML_LOADER_HH
#define MCPAT_CONFIG_XML_LOADER_HH

#include <string>
#include <vector>

#include "chip/system_params.hh"
#include "common/diagnostics.hh"
#include "config/xml_parser.hh"
#include "stats/activity_stats.hh"

namespace mcpat {
namespace config {

/**
 * Result of loading a config: parameters plus every diagnostic the
 * load produced.  `warnings` is the legacy string form of the
 * Warning-severity diagnostics (unknown keys / component types);
 * `diagnostics` carries the full structured list including component,
 * key, and source-line context.
 */
struct LoadResult
{
    chip::SystemParams system;
    std::vector<std::string> warnings;
    DiagnosticList diagnostics;
};

/**
 * Build SystemParams from a parsed XML tree (root <component
 * type="System">).
 *
 * Every <param> is parsed strictly (full-token numbers, closed enum
 * sets, per-key ranges).  All violations in the tree are collected;
 * if any are Error severity, a ValidationError summarizing the whole
 * list is thrown — the partially-filled SystemParams is never
 * returned, so a malformed value cannot silently become a default.
 */
LoadResult loadSystemParams(const XmlNode &root);

/** Convenience: parse a file and load it (ValidationError is re-keyed
 *  on the file path). */
LoadResult loadSystemParamsFromFile(const std::string &path);

/**
 * Extract runtime statistics from <stat> entries in the tree.
 *
 * Two forms are supported, composing in this order:
 *
 * 1. Simulator counters (the original tool's interface): the core
 *    component carries <stat name="total_cycles" .../> plus event
 *    counters (committed_instructions, int_instructions,
 *    fp_instructions, branch_instructions, branch_mispredictions,
 *    loads, stores, icache_accesses/icache_misses,
 *    dcache_accesses/dcache_misses, itlb_accesses, dtlb_accesses);
 *    shared caches carry read_accesses/read_misses/write_accesses/
 *    write_misses; the NoC carries total_flits; the memory controller
 *    carries bytes_transferred.  Rates are counters / total_cycles.
 *    Any counter left out falls back to the TDP vector's value.
 *
 * 2. A system-level <stat name="activity_scale" value="0.7"/> scales
 *    whatever the previous step produced (default 1.0).
 *
 * Stat values are parsed strictly (full token, finite); malformed
 * entries raise a ValidationError naming the component, stat, and
 * source line rather than silently falling back to TDP defaults.
 */
stats::ChipStats loadChipStats(const XmlNode &root,
                               const chip::SystemParams &params);

} // namespace config
} // namespace mcpat

#endif // MCPAT_CONFIG_XML_LOADER_HH
