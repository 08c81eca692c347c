/**
 * @file
 * Technology operating-point logic: DVFS, temperature, and density helpers.
 */

#include "tech/technology.hh"

#include <cmath>

namespace mcpat {
namespace tech {

Technology::Technology(int node_nm, DeviceFlavor flavor, double temperature_k)
    : _node(&lookupTechNode(node_nm)),
      _flavor(flavor),
      _vdd(_node->device[static_cast<int>(flavor)].vdd),
      _temperature(temperature_k)
{
    fatalIf(temperature_k < 233.0 || temperature_k > 420.0,
            "junction temperature outside the modeled 233-420 K range");
    refreshScales();
}

void
Technology::setVdd(double vdd)
{
    fatalIf(vdd < device().vth + 0.1,
            "DVFS supply voltage too close to Vth for the delay model");
    fatalIf(vdd > device().vdd * 1.4,
            "DVFS supply voltage more than 40% above nominal");
    _vdd = vdd;
    refreshScales();
}

void
Technology::setTemperature(double t)
{
    _temperature = t;
    refreshScales();
}

void
Technology::refreshScales()
{
    // Subthreshold leakage roughly doubles every 20 K; DIBL makes Ioff
    // approximately linear in Vdd around the nominal point.
    const double temp_factor = std::pow(2.0, (_temperature - 300.0) / 20.0);
    const double v = _vdd / device().vdd;
    _leakageScale = temp_factor * v;
    _gateLeakageScale = v * v;

    constexpr double alpha = 1.3;
    const double vnom = device().vdd;
    const double vth = device().vth;
    const double nominal = vnom / std::pow(vnom - vth, alpha);
    const double actual = _vdd / std::pow(_vdd - vth, alpha);
    _delayScale = actual / nominal;
}

double
Technology::energyScale() const
{
    const double v = _vdd / device().vdd;
    return v * v;
}

} // namespace tech
} // namespace mcpat
