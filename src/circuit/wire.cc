/**
 * @file
 * Wire model implementations.
 */

#include "circuit/wire.hh"

#include <algorithm>
#include <cmath>

#include "circuit/elmore.hh"
#include "circuit/logical_effort.hh"

namespace mcpat {
namespace circuit {

Wire::Wire(double length, WireLayer layer, const Technology &t)
    : _tech(t), _length(length)
{
    panicIf(length < 0.0, "negative wire length");
    const auto &w = t.wire(layer);
    _res = w.resPerM * length;
    _cap = w.capPerM * length;
}

double
Wire::unrepeatedDelay(double drive_res, double c_load) const
{
    return distributedLineDelay(drive_res, _res, _cap, c_load);
}

RepeatedWire::RepeatedWire(double length, WireLayer layer,
                           const Technology &t, double size_derate)
{
    panicIf(length < 0.0, "negative wire length");
    panicIf(size_derate <= 0.0 || size_derate > 1.0,
            "repeater derating must be in (0, 1]");

    const auto &wp = t.wire(layer);
    const double r_per_m = wp.resPerM;
    const double c_per_m = wp.capPerM;

    const double wmin = minWidth(t);
    const Inverter unit(wmin, t);
    const double r0 = unit.outputRes(t);
    const double c0 = unit.inputC(t);
    const double cp = unit.selfC(t);

    // Bakoglu's closed-form optimum.
    const double l_opt =
        std::sqrt(2.0 * r0 * (c0 + cp) / (r_per_m * c_per_m));
    const double h_opt =
        std::sqrt(r0 * c_per_m / (r_per_m * c0)) * size_derate;

    int n_seg = std::max(1, static_cast<int>(std::ceil(length / l_opt)));
    const double l_seg = length / n_seg;

    _numRepeaters = n_seg;
    _repWidth = std::max(wmin, wmin * h_opt);

    const Inverter rep(_repWidth, t);
    const double seg_r = r_per_m * l_seg;
    const double seg_c = c_per_m * l_seg;

    // Per-segment delay: repeater drives its junctions, the distributed
    // segment, and the next repeater's input.
    const double seg_delay =
        rcDelayFactor * rep.outputRes(t) * (rep.selfC(t) + seg_c +
                                            rep.inputC(t)) +
        seg_r * (0.38 * seg_c + rcDelayFactor * rep.inputC(t));

    _delay = seg_delay * n_seg;
    _energy = (c_per_m * length +
               n_seg * (rep.selfC(t) + rep.inputC(t))) * t.vdd() * t.vdd();
    _subLeak = n_seg * rep.subthresholdLeakage(t);
    _gateLeak = n_seg * rep.gateLeakage(t);
    _area = n_seg * inverterArea(_repWidth, t);
}

LowSwingWire::LowSwingWire(double length, WireLayer layer,
                           const Technology &t)
{
    panicIf(length < 0.0, "negative wire length");
    const auto &wp = t.wire(layer);
    const double wire_res = wp.resPerM * length;
    const double wire_cap = wp.capPerM * length;

    // Driver sized for roughly 3x the RC time constant of the line; the
    // differential pair doubles wire capacitance.
    const double wmin = minWidth(t);
    const double drv_w = std::max(wmin, 12.0 * wmin);
    const Inverter drv(drv_w, t);

    const double sense_delay = 3.0 * t.fo4();  // sense-amp resolution
    _delay = distributedLineDelay(drv.outputRes(t), wire_res,
                                  2.0 * wire_cap, 0.0) + sense_delay;

    // Energy: differential pair swings vSwing, driver internals swing Vdd.
    const double sense_energy = 8.0 * gateC(wmin, t) * t.vdd() * t.vdd();
    _energy = 2.0 * wire_cap * vSwing * t.vdd() +
              (drv.selfC(t) + drv.inputC(t)) * t.vdd() * t.vdd() +
              sense_energy;

    _subLeak = drv.subthresholdLeakage(t) +
               2.0 * Inverter(wmin, t).subthresholdLeakage(t);
    _gateLeak = drv.gateLeakage(t) +
                2.0 * Inverter(wmin, t).gateLeakage(t);
    _area = inverterArea(drv_w, t) + 6.0 * t.logicGateArea();
}

} // namespace circuit
} // namespace mcpat
