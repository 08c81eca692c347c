/**
 * @file
 * Transistor-level R/C helpers (CACTI-style).
 *
 * Every higher-level circuit model reduces to these few functions: gate
 * and drain capacitance per device width, effective switching resistance
 * from the drive-current density, and the leakage of basic gates.
 *
 * Convention used across the whole framework: a dynamic "energy per event"
 * is C * Vdd^2 (one full charge/discharge pair); activity factors count
 * events per cycle.
 */

#ifndef MCPAT_CIRCUIT_TRANSISTOR_HH
#define MCPAT_CIRCUIT_TRANSISTOR_HH

#include "tech/technology.hh"

namespace mcpat {
namespace circuit {

using tech::Technology;

// The helpers below are inline: every circuit model is built from
// them, and the array organization search calls them thousands of
// times per solve.

/**
 * Effective-resistance factor: converts Vdd/Ion into an average switching
 * resistance, absorbing saturation-region averaging and input slope.
 * Calibrated against the per-node FO4 table entries.
 */
constexpr double resEffFactor = 2.5;

/** Minimum-size device width (in m) for this technology: 3 F. */
inline double
minWidth(const Technology &t)
{
    return 3.0 * t.feature();
}

/** Gate capacitance of a device of width w, F. */
inline double
gateC(double w, const Technology &t)
{
    return t.device().cGate * w;
}

/** Source/drain junction capacitance of a device of width w, F. */
inline double
drainC(double w, const Technology &t)
{
    return t.device().cJunction * w;
}

/**
 * Effective switching resistance of an NMOS of width w, ohm.
 *
 * Includes an empirical factor (2.5) covering saturation-region averaging
 * and input-slope effects, calibrated so a computed FO4 delay matches the
 * technology table's FO4 entry.
 */
inline double
onResistanceN(double w, const Technology &t)
{
    return resEffFactor * t.vdd() / (t.device().ionN * w);
}

/** Effective switching resistance of a PMOS of width w, ohm. */
inline double
onResistanceP(double w, const Technology &t)
{
    return resEffFactor * t.vdd() / (t.device().ionP * w);
}

/**
 * Average subthreshold leakage power of a generic gate given its total
 * NMOS and PMOS width, W.  A stacking factor (default 0.6 for 2-high
 * stacks in NAND/NOR pull networks) derates series devices.
 */
inline double
subthresholdLeakage(double total_wn, double total_wp, const Technology &t,
                    double stack_factor = 1.0)
{
    const auto &d = t.device();
    // Half the time the NMOS network leaks, half the time the PMOS one.
    const double i_avg =
        0.5 * (d.ioffN * total_wn + d.ioffP * total_wp) * stack_factor;
    return i_avg * t.leakageScale() * t.vdd();
}

/** Gate-leakage power of total device width (NMOS + PMOS), W. */
inline double
gateLeakage(double total_w, const Technology &t)
{
    return t.device().igate * total_w * t.gateLeakageScale() * t.vdd();
}

/**
 * A static CMOS inverter with NMOS width wn and PMOS width 2*wn.
 * The building block for buffer chains, drivers, and leakage estimates.
 */
struct Inverter
{
    double wn;   ///< NMOS width, m
    double wp;   ///< PMOS width, m

    Inverter(double nmos_width, const Technology &)
        : wn(nmos_width), wp(2.0 * nmos_width)
    {
        panicIf(nmos_width <= 0.0, "inverter with non-positive width");
    }

    /** Input (gate) capacitance, F. */
    double inputC(const Technology &t) const { return gateC(wn + wp, t); }

    /** Output self-capacitance (junctions), F. */
    double selfC(const Technology &t) const { return drainC(wn + wp, t); }

    /**
     * Worst-case pull resistance, ohm.  With wp = 2 wn and IonP =
     * 0.5 IonN the pull-up and pull-down resistances match; this is
     * the common value.
     */
    double
    outputRes(const Technology &t) const
    {
        return onResistanceN(wn, t);
    }

    /**
     * Average subthreshold leakage power, W, at the technology's
     * operating temperature (one of the two devices leaks at a time).
     */
    double
    subthresholdLeakage(const Technology &t) const
    {
        return circuit::subthresholdLeakage(wn, wp, t);
    }

    /** Gate-leakage power, W. */
    double
    gateLeakage(const Technology &t) const
    {
        return circuit::gateLeakage(wn + wp, t);
    }
};

/**
 * Average capacitance of one logic net: the local wire between a gate
 * and its fanout (~700 F of routed length) plus 2.5 gate loads and the
 * driver's junctions.  Gate-counting power models must charge this, not
 * just the bare gate capacitance — local wires dominate switched
 * capacitance in synthesized logic.
 */
double averageNetCap(const Technology &t);

/** Energy of one average logic-gate output transition, J (C_net Vdd^2). */
double logicGateEnergy(const Technology &t);

} // namespace circuit
} // namespace mcpat

#endif // MCPAT_CIRCUIT_TRANSISTOR_HH
