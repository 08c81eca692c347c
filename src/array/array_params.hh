/**
 * @file
 * User-facing parameters for memory-array structures.
 *
 * Arrays are the dominant silicon in the chips McPAT targets: caches,
 * register files, branch predictors, TLBs, queues, directories.  A user
 * describes an array architecturally (capacity, word width, ports); the
 * organization optimizer (array_model.cc) finds the internal subarray
 * partitioning — that is the "circuit-level optimizer" of the paper.
 */

#ifndef MCPAT_ARRAY_ARRAY_PARAMS_HH
#define MCPAT_ARRAY_ARRAY_PARAMS_HH

#include <optional>
#include <string>

#include "tech/technology.hh"

namespace mcpat {
namespace array {

/** Storage-cell implementation for an array. */
enum class CellType
{
    SRAM,   ///< 6T cells: caches, large register files
    CAM,    ///< content-addressable: issue queues, fully-assoc TLBs, LSQs
    DFF,    ///< flip-flop grid: small queues and FIFOs
    EDRAM   ///< 1T1C logic eDRAM: dense LLCs (destructive read + refresh)
};

/**
 * Architectural description of one array structure.
 *
 * Specify either @c sizeBytes (+ @c blockWidthBits) for byte-addressed
 * memories or @c rows x @c bits for word-organized structures (register
 * files, predictor tables).  Exactly one of the two forms must be used.
 */
struct ArrayParams
{
    std::string name = "array";

    // --- Form 1: byte-addressed memory -------------------------------
    double sizeBytes = 0.0;     ///< total capacity, bytes
    int blockWidthBits = 0;     ///< bits delivered per access

    // --- Form 2: word-organized structure -----------------------------
    int rows = 0;               ///< number of entries
    int bits = 0;               ///< bits per entry

    CellType cellType = CellType::SRAM;

    // Ports.  A read/write port carries both directions (standard cache
    // port); dedicated read/write ports are extra wordlines/bitlines.
    int readWritePorts = 1;
    int readPorts = 0;
    int writePorts = 0;
    int searchPorts = 0;        ///< CAM search ports

    int banks = 1;              ///< independently addressable banks

    /** Optional cycle-time constraint; 0 disables the check, s. */
    double targetCycleTime = 0.0;

    /**
     * Transistor flavor for the cells and periphery of this array.
     * Unset (the default) inherits the surrounding logic's flavor;
     * large caches usually set LSTP explicitly while core logic is HP.
     */
    std::optional<tech::DeviceFlavor> flavor;

    /** Derived: total storage bits across all banks. */
    double totalBits() const;

    /** Derived: total rows (form 2) or sizeBytes*8/blockWidth (form 1). */
    int totalRows() const;

    /** Derived: bits per row as organized logically. */
    int rowBits() const;

    /** Total wordline-switching ports per cell. */
    int totalPorts() const;

    /** Throw ConfigError when the description is inconsistent. */
    void validate() const;

    auto operator<=>(const ArrayParams &) const = default;
};

/** Relative weights for the organization objective (lower is better). */
struct OptimizationWeights
{
    double delay = 100.0;
    double dynamic = 20.0;
    double leakage = 10.0;
    double area = 20.0;
    double cycle = 20.0;

    /**
     * Area-deviation constraint (CACTI-style): candidates whose area
     * exceeds this multiple of the densest feasible organization are
     * rejected, preventing delay-driven periphery explosions.
     */
    double maxAreaRatio = 1.25;

    auto operator<=>(const OptimizationWeights &) const = default;
};

/**
 * Organization of the array chosen by the optimizer (CACTI's Ndwl / Ndbl
 * / Nspd parameters, per bank).
 */
struct ArrayOrg
{
    int ndwl = 1;     ///< wordline partitions (splits columns)
    int ndbl = 1;     ///< bitline partitions (splits rows)
    double nspd = 1;  ///< row/column folding factor

    int subarrays() const { return ndwl * ndbl; }
};

/**
 * Full electrical/physical result for one array instance.
 *
 * Energies are per access of one port; powers are totals for the array.
 */
struct ArrayResult
{
    ArrayOrg org;

    double area = 0.0;          ///< m^2
    double accessDelay = 0.0;   ///< address-to-data delay, s
    double cycleTime = 0.0;     ///< min time between accesses, s

    double readEnergy = 0.0;    ///< J per read access
    double writeEnergy = 0.0;   ///< J per write access
    double searchEnergy = 0.0;  ///< J per CAM search (CAM arrays only)

    double subthresholdLeakage = 0.0;  ///< W
    double gateLeakage = 0.0;          ///< W

    /** Always-on refresh power (eDRAM arrays only), W. */
    double refreshPower = 0.0;

    double height = 0.0;        ///< layout height, m
    double width = 0.0;         ///< layout width, m
};

} // namespace array
} // namespace mcpat

#endif // MCPAT_ARRAY_ARRAY_PARAMS_HH
