/**
 * @file
 * Architectural parameters of one core.
 *
 * Covers both in-order multithreaded cores (Niagara-class) and wide
 * out-of-order cores (Alpha 21364 / Xeon class); every sizing knob the
 * paper's core models expose is here.
 */

#ifndef MCPAT_CORE_CORE_PARAMS_HH
#define MCPAT_CORE_CORE_PARAMS_HH

#include <string>

#include "array/cache_model.hh"
#include "logic/renaming_logic.hh"

namespace mcpat {
namespace core {

using tech::Technology;

/** Branch-predictor sizing. */
struct PredictorParams
{
    int btbEntries = 2048;
    int btbTargetBits = 64;       ///< tag + target per BTB entry
    int localEntries = 1024;      ///< local history/counter table
    int localBits = 10;
    int globalEntries = 4096;     ///< global 2-bit counter table
    int chooserEntries = 4096;    ///< tournament chooser table
    int rasEntries = 16;          ///< return-address stack per thread

    auto operator<=>(const PredictorParams &) const = default;
};

/** Architectural description of one core. */
struct CoreParams
{
    std::string name = "Core";

    bool outOfOrder = true;
    bool x86 = false;
    int threads = 1;              ///< SMT / fine-grained thread count

    double clockRate = 2.0 * GHz;
    int pipelineStages = 12;
    int datapathWidth = 64;       ///< bits
    int virtualAddressBits = 64;
    int physicalAddressBits = 42;

    int fetchWidth = 4;
    int decodeWidth = 4;
    int issueWidth = 4;
    int commitWidth = 4;

    // --- Out-of-order machinery (ignored for in-order cores). ----------
    int robEntries = 128;
    int intWindowEntries = 64;
    int fpWindowEntries = 32;
    int physIntRegs = 128;
    int physFpRegs = 128;
    logic::RatStyle ratStyle = logic::RatStyle::Ram;

    int archIntRegs = 32;
    int archFpRegs = 32;

    // --- Execution resources. -------------------------------------------
    int intAlus = 4;
    int fpus = 2;
    int muls = 1;

    // --- Memory pipeline. -------------------------------------------------
    int loadQueueEntries = 32;
    int storeQueueEntries = 32;
    int itlbEntries = 64;
    int dtlbEntries = 64;

    array::CacheParams icache;
    array::CacheParams dcache;

    PredictorParams predictor;

    /** Include a branch predictor (tiny embedded cores may drop it). */
    bool hasBranchPredictor = true;
    /** Include FP hardware (Niagara-1 shares one FPU per chip). */
    bool hasFpu = true;

    /** Per-component white-space/wiring overhead on the core area. */
    double areaOverhead = 0.15;

    /**
     * Circuit design-style factor on core dynamic power: static CMOS
     * designs ~1.8; aggressive domino/dynamic-logic designs (Alpha,
     * NetBurst) switch considerably more capacitance, ~2.5-3.
     */
    double dynamicMargin = 1.8;

    /**
     * Insert sleep transistors for core-level power gating.  Costs
     * ~4% area; idle-time leakage shrinks by the gating efficiency
     * (see CoreStats::sleepFraction for the runtime knob).  TDP
     * leakage is unaffected (TDP assumes the core is awake).
     */
    bool powerGating = false;

    CoreParams();

    /** Physical-register tag width, bits. */
    int intTagBits() const;
    int fpTagBits() const;

    void validate() const;

    auto operator<=>(const CoreParams &) const = default;
};

} // namespace core
} // namespace mcpat

#endif // MCPAT_CORE_CORE_PARAMS_HH
