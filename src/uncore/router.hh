/**
 * @file
 * NoC router model: virtual-channel input buffers, crossbar, and the
 * VC/switch allocators, following the Orion-style decomposition the
 * paper adopts.
 */

#ifndef MCPAT_UNCORE_ROUTER_HH
#define MCPAT_UNCORE_ROUTER_HH

#include <memory>

#include "array/array_model.hh"
#include "logic/arbiter.hh"

namespace mcpat {
namespace uncore {

using tech::Technology;

/** Router microarchitecture parameters. */
struct RouterParams
{
    int ports = 5;            ///< N/S/E/W + local
    int virtualChannels = 2;  ///< VCs per port
    int bufferDepth = 4;      ///< flits per VC
    int flitBits = 128;
    double clockRate = 1.0 * GHz;

    auto operator<=>(const RouterParams &) const = default;
};

/**
 * One wormhole/VC router.
 */
class Router
{
  public:
    Router(RouterParams params, const Technology &t);

    const RouterParams &params() const { return _params; }

    /** Energy to move one flit through the router, J. */
    double energyPerFlit() const;

    double area() const;
    double subthresholdLeakage() const;
    double gateLeakage() const;

    /** Per-hop router latency (buffering + allocation + traversal), s. */
    double delay() const;

    /**
     * Report at @p flits_per_cycle traversal rate (TDP and runtime).
     */
    Report makeReport(double tdp_flits, double rt_flits) const;

  private:
    RouterParams _params;

    std::unique_ptr<array::ArrayModel> _inputBuffer;  ///< per port
    std::unique_ptr<logic::Arbiter> _vcAllocator;
    std::unique_ptr<logic::Arbiter> _swAllocator;

    double _xbarEnergyPerFlit = 0.0;
    double _xbarArea = 0.0;
    double _xbarSubLeak = 0.0;
    double _xbarGateLeak = 0.0;
    double _xbarDelay = 0.0;
};

} // namespace uncore
} // namespace mcpat

#endif // MCPAT_UNCORE_ROUTER_HH
