/**
 * @file
 * Top-level system description: technology point, core population,
 * cache hierarchy, interconnect, memory controllers, and I/O.
 */

#ifndef MCPAT_CHIP_SYSTEM_PARAMS_HH
#define MCPAT_CHIP_SYSTEM_PARAMS_HH

#include <string>
#include <vector>

#include "common/diagnostics.hh"
#include "common/field_table.hh"
#include "core/core_params.hh"
#include "uncore/chip_io.hh"
#include "uncore/directory.hh"
#include "uncore/memctrl.hh"
#include "uncore/noc.hh"
#include "uncore/shared_cache.hh"

namespace mcpat {
namespace chip {

/** One population of identical cores on a heterogeneous chip. */
struct CoreGroup
{
    core::CoreParams core;
    int count = 1;

    bool operator==(const CoreGroup &) const = default;
};

/**
 * Whole-chip architectural description.
 *
 * Homogeneous chips use @c numCores + @c core; heterogeneous chips
 * populate @c coreGroups instead (when non-empty it takes precedence).
 */
struct SystemParams
{
    std::string name = "System";

    // --- Technology operating point. -------------------------------------
    int nodeNm = 65;
    tech::DeviceFlavor coreFlavor = tech::DeviceFlavor::HP;
    tech::WireProjection projection = tech::WireProjection::Aggressive;
    double temperature = 360.0;  ///< K, hot junction for TDP leakage
    /** Override the core logic supply (0 keeps the flavor nominal), V. */
    double vdd = 0.0;

    // --- Components. ---------------------------------------------------------
    int numCores = 1;
    core::CoreParams core;

    /** Heterogeneous core populations (overrides numCores/core). */
    std::vector<CoreGroup> coreGroups;

    /** The effective core populations (groups or the homogeneous pair). */
    std::vector<CoreGroup> resolvedCoreGroups() const;

    /** Total core count across all groups. */
    int totalCores() const;

    int numL2 = 0;
    uncore::SharedCacheParams l2;

    int numL3 = 0;
    uncore::SharedCacheParams l3;

    bool hasDirectory = false;
    uncore::DirectoryParams directory;

    bool hasNoc = false;
    uncore::NocParams noc;

    bool hasMemCtrl = true;
    uncore::MemCtrlParams memCtrl;

    bool hasIo = true;
    uncore::ChipIoParams io;

    /** Chip-level white space on top of component areas. */
    double whiteSpaceFraction = 0.10;

    /**
     * Consistency pass.  Returns every problem found — a present
     * component's field outside its XML row (one left at its struct
     * default is never flagged), cache geometry that does not divide
     * evenly, per-component invariant failures (Error severity), plus
     * advisory mismatches such as a commit width above the issue width
     * (Warning severity).  Reports each field once; never throws.
     */
    DiagnosticList check() const;

    /** Throw a ValidationError when check() finds any errors. */
    void validate() const;

    bool operator==(const SystemParams &) const = default;
};

/** SystemParams' own XML rows (common/field_table.hh); each component
 *  has its table next to its params struct. */
inline constexpr auto kSystemFields = [](auto &&visit, auto &...s) {
    using namespace fields;
    visit(Field{"technology_node",
                Int{tech::kMinTechNode, tech::kMaxTechNode}, kRequired},
          s.nodeNm...);
    visit(Field{"temperature", Real{233.0, 420.0}}, s.temperature...);
    visit(Field{"device_type", OneOf{tech::kFlavorSpellings}}, s.coreFlavor...);
    visit(Field{"interconnect_projection", OneOf{tech::kProjectionSpellings}},
          s.projection...);
    visit(Field{"core_count", Int{1, 65536}, kRequired}, s.numCores...);
    visit(Field{"vdd", Real{0.2, 2.5}}, s.vdd...);
    visit(Field{"white_space", Real{0.0, 0.6}}, s.whiteSpaceFraction...);
};

/** The instance count an L2 or L3 component gives numL2 / numL3. */
inline constexpr fields::Field kCacheCountField{"count", fields::Int{1, 1024}};

} // namespace chip
} // namespace mcpat

#endif // MCPAT_CHIP_SYSTEM_PARAMS_HH
