/**
 * @file
 * Core-parameter defaults and validation.
 */

#include "core/core_params.hh"

#include <cmath>

#include "common/logging.hh"

namespace mcpat {
namespace core {

CoreParams::CoreParams()
{
    icache.name = "Instruction Cache";
    icache.capacityBytes = 32 * 1024;
    icache.blockBytes = 64;
    icache.assoc = 4;
    icache.mshrs = 4;
    icache.writeBackEntries = 0;
    icache.fillBufferEntries = 2;

    dcache.name = "Data Cache";
    dcache.capacityBytes = 32 * 1024;
    dcache.blockBytes = 64;
    dcache.assoc = 4;
    dcache.mshrs = 8;
    dcache.writeBackEntries = 8;
    dcache.fillBufferEntries = 4;
}

int
CoreParams::intTagBits() const
{
    const int regs = outOfOrder ? physIntRegs : archIntRegs * threads;
    return std::max(1, static_cast<int>(std::ceil(std::log2(
        static_cast<double>(regs)))));
}

int
CoreParams::fpTagBits() const
{
    const int regs = outOfOrder ? physFpRegs : archFpRegs * threads;
    return std::max(1, static_cast<int>(std::ceil(std::log2(
        static_cast<double>(regs)))));
}

void
CoreParams::validate() const
{
    // A message is built only when its check fails.
    const auto fail = [this](bool cond, const char *what) {
        if (cond)
            throw ConfigError(name + ": " + what);
    };
    fail(threads < 1, "thread count must be >= 1");
    fail(clockRate <= 0.0, "clock rate must be positive");
    fail(fetchWidth < 1 || decodeWidth < 1 || issueWidth < 1 ||
             commitWidth < 1,
         "pipeline widths must be >= 1");
    fail(pipelineStages < 3, "pipeline too short to model");
    if (outOfOrder) {
        fail(robEntries < 8, "ROB too small");
        fail(intWindowEntries < 2, "INT window too small");
        fail(physIntRegs < archIntRegs,
             "fewer physical than architectural INT regs");
        fail(hasFpu && physFpRegs < archFpRegs,
             "fewer physical than architectural FP regs");
    }
    fail(intAlus < 1, "at least one ALU required");
    fail(loadQueueEntries < 1 || storeQueueEntries < 1,
         "load/store queues must be non-empty");
    icache.validate();
    dcache.validate();
}

} // namespace core
} // namespace mcpat
