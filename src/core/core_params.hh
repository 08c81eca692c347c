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
#include "common/field_table.hh"
#include "common/units.hh"
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

inline constexpr fields::Spelling<logic::RatStyle> kRatStyleSpellings[] = {
    {"ram", logic::RatStyle::Ram}, {"cam", logic::RatStyle::Cam}};

/** CoreParams' XML rows (common/field_table.hh), with its predictor's
 *  and L1 caches'. */
inline constexpr auto kCoreFields = [](auto &&visit, auto &...c) {
    using namespace fields;
    visit(Field{"clock_rate_mhz", kClockMhz, kRequired}, c.clockRate...);
    visit(Field{"out_of_order", Flag{}}, c.outOfOrder...);
    visit(Field{"x86", Flag{}}, c.x86...);
    visit(Field{"threads", Int{1, 128}}, c.threads...);
    visit(Field{"fetch_width", Int{1, 32}}, c.fetchWidth...);
    visit(Field{"decode_width", Int{1, 32}}, c.decodeWidth...);
    visit(Field{"issue_width", Int{1, 32}}, c.issueWidth...);
    visit(Field{"commit_width", Int{1, 32}}, c.commitWidth...);
    visit(Field{"pipeline_depth", Int{3, 64}}, c.pipelineStages...);
    visit(Field{"dynamic_margin", Real{1.0, 5.0}}, c.dynamicMargin...);
    visit(Field{"power_gating", Flag{}}, c.powerGating...);

    visit(Field{"rob_size", Int{8, kCount.hi}}, c.robEntries...);
    visit(Field{"instruction_window_size", Int{2, kCount.hi}},
          c.intWindowEntries...);
    visit(Field{"fp_instruction_window_size", kCount}, c.fpWindowEntries...);
    visit(Field{"phy_int_regs", kCount}, c.physIntRegs...);
    visit(Field{"phy_fp_regs", kCount}, c.physFpRegs...);
    visit(Field{"arch_int_regs", kCount}, c.archIntRegs...);
    visit(Field{"arch_fp_regs", kCount}, c.archFpRegs...);
    visit(Field{"rat_style", OneOf{kRatStyleSpellings}}, c.ratStyle...);

    visit(Field{"alu_count", Int{1, 64}}, c.intAlus...);
    visit(Field{"fpu_count", Int{0, 64}}, c.fpus...);
    visit(Field{"mul_count", Int{0, 64}}, c.muls...);
    visit(Field{"has_fpu", Flag{}}, c.hasFpu...);
    visit(Field{"has_branch_predictor", Flag{}}, c.hasBranchPredictor...);

    visit(Field{"load_queue_size", kCount}, c.loadQueueEntries...);
    visit(Field{"store_queue_size", kCount}, c.storeQueueEntries...);
    visit(Field{"itlb_entries", kCount}, c.itlbEntries...);
    visit(Field{"dtlb_entries", kCount}, c.dtlbEntries...);

    visit(Field{"btb_entries", kCount}, c.predictor.btbEntries...);
    visit(Field{"local_predictor_entries", kCount},
          c.predictor.localEntries...);
    visit(Field{"global_predictor_entries", kCount},
          c.predictor.globalEntries...);
    visit(Field{"chooser_predictor_entries", kCount},
          c.predictor.chooserEntries...);
    visit(Field{"ras_size", kCount}, c.predictor.rasEntries...);

    visit(Field{"icache_kb", Real{0.125, 65536.0, KiB}},
          c.icache.capacityBytes...);
    visit(Field{"icache_block", Int{4, 4096}}, c.icache.blockBytes...);
    visit(Field{"icache_assoc", Int{0, 128}}, c.icache.assoc...);
    visit(Field{"icache_banks", Int{1, 1024}}, c.icache.banks...);

    visit(Field{"dcache_kb", Real{0.125, 65536.0, KiB}},
          c.dcache.capacityBytes...);
    visit(Field{"dcache_block", Int{4, 4096}}, c.dcache.blockBytes...);
    visit(Field{"dcache_assoc", Int{0, 128}}, c.dcache.assoc...);
    visit(Field{"dcache_banks", Int{1, 1024}}, c.dcache.banks...);
};

} // namespace core
} // namespace mcpat

#endif // MCPAT_CORE_CORE_PARAMS_HH
