/**
 * @file
 * Transistor-level net helpers (the per-device helpers are inline in
 * the header).
 */

#include "circuit/transistor.hh"

namespace mcpat {
namespace circuit {

double
averageNetCap(const Technology &t)
{
    const double wire_len = 700.0 * t.feature();
    const double wire_c =
        wire_len * t.wire(tech::WireLayer::Local).capPerM;
    const double wmin = minWidth(t);
    return wire_c + 2.5 * gateC(2.0 * wmin, t) + drainC(4.0 * wmin, t);
}

double
logicGateEnergy(const Technology &t)
{
    return averageNetCap(t) * t.vdd() * t.vdd();
}

} // namespace circuit
} // namespace mcpat
