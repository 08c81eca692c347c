/**
 * @file
 * Memory-controller model: front-end request machinery (queues,
 * scheduling), transaction back end, and the physical interface (PHY),
 * following the paper's three-part MC decomposition.
 */

#ifndef MCPAT_UNCORE_MEMCTRL_HH
#define MCPAT_UNCORE_MEMCTRL_HH

#include <memory>

#include "array/array_model.hh"
#include "logic/arbiter.hh"

namespace mcpat {
namespace uncore {

using tech::Technology;

/** DRAM interface family (sets PHY energy and pin counts). */
enum class DramType { DDR2, DDR3, FbDimm, Rdram };

/** Memory-controller parameters. */
struct MemCtrlParams
{
    std::string name = "Memory Controller";
    int channels = 2;
    int dataBusBits = 64;        ///< per channel
    double busClock = 400.0 * MHz;
    DramType dramType = DramType::DDR2;

    int requestQueueEntries = 32;
    int physicalAddressBits = 42;

    /** Peak bandwidth per channel, B/s (derived if 0). */
    double peakBandwidth = 0.0;

    auto operator<=>(const MemCtrlParams &) const = default;
};

/**
 * One memory controller (all channels).
 */
class MemoryController
{
  public:
    MemoryController(MemCtrlParams params, const Technology &t);

    const MemCtrlParams &params() const { return _params; }

    /** Peak bandwidth across channels, B/s. */
    double peakBandwidth() const { return _peakBandwidth; }

    /** Energy to transfer one byte at the pins + transaction cost, J. */
    double energyPerByte() const { return _energyPerByte; }

    double area() const { return _area; }

    /**
     * Report at a given utilization of peak bandwidth (0..1), TDP and
     * runtime.
     */
    Report makeReport(double tdp_utilization,
                      double rt_utilization) const;

  private:
    MemCtrlParams _params;
    double _peakBandwidth = 0.0;
    double _energyPerByte = 0.0;
    double _area = 0.0;
    double _subLeak = 0.0;
    double _gateLeak = 0.0;
    double _phyStaticPower = 0.0;  ///< bias/termination, always on

    std::unique_ptr<array::ArrayModel> _requestQueue;
    std::unique_ptr<logic::Arbiter> _scheduler;
};

} // namespace uncore
} // namespace mcpat

#endif // MCPAT_UNCORE_MEMCTRL_HH
