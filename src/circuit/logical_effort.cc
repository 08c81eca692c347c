/**
 * @file
 * Buffer-chain sizing via logical effort.
 */

#include "circuit/logical_effort.hh"

#include <algorithm>
#include <cmath>

namespace mcpat {
namespace circuit {

double
inverterArea(double wn, const Technology &t)
{
    // Express the inverter as a fraction of a routed NAND2-equivalent:
    // a minimum inverter is ~0.45 of a NAND2 footprint (drivers are
    // diffusion-dominated, not routing-dominated), growing linearly
    // with drive strength.
    const double strength = wn / minWidth(t);
    return 0.45 * t.logicGateArea() * std::max(1.0, strength);
}

BufferChain::BufferChain(double c_load, const Technology &t,
                         double c_in_budget, int min_stages)
{
    panicIf(c_load < 0.0, "negative load capacitance");

    const double wmin = minWidth(t);
    const Inverter unit(wmin, t);
    const double c_unit = unit.inputC(t);

    if (c_in_budget <= 0.0)
        c_in_budget = c_unit;
    _inputC = c_in_budget;

    const double path_effort = std::max(1.0, c_load / c_in_budget);
    int n = static_cast<int>(
        std::lround(std::log(path_effort) / std::log(optimalStageEffort)));
    n = std::max({n, 1, min_stages});

    const double stage_effort = std::pow(path_effort, 1.0 / n);

    // First-stage NMOS width realizing the input-capacitance budget.
    const double w0 = wmin * (c_in_budget / c_unit);

    _numStages = n;
    // Stage i has NMOS width w0 * stage_effort^i; each width is computed
    // once and carried to the next stage as its input load.
    double width = w0;
    for (int i = 0; i < n; ++i) {
        const Inverter inv(width, t);
        const bool last = i + 1 == n;
        const double next_width =
            last ? 0.0 : w0 * std::pow(stage_effort, i + 1);
        const double next_c =
            last ? c_load : Inverter(next_width, t).inputC(t);
        _delay += stageDelay(inv.outputRes(t), inv.selfC(t), next_c);
        // Energy: every stage charges its own junctions plus its load.
        _energy += (inv.selfC(t) + next_c) * t.vdd() * t.vdd();
        _subLeak += inv.subthresholdLeakage(t);
        _gateLeak += inv.gateLeakage(t);
        _area += inverterArea(width, t);
        width = next_width;
    }
}

} // namespace circuit
} // namespace mcpat
