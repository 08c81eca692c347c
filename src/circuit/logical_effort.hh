/**
 * @file
 * Logical-effort gate sizing: buffer chains and sized drivers.
 *
 * McPAT sizes all decoder, driver, and output stages with the method of
 * logical effort; this module provides the shared machinery: given an
 * input-capacitance budget and a load, build a geometrically tapered
 * inverter chain and report its delay, energy per event, leakage, and
 * device area.
 */

#ifndef MCPAT_CIRCUIT_LOGICAL_EFFORT_HH
#define MCPAT_CIRCUIT_LOGICAL_EFFORT_HH

#include "circuit/transistor.hh"

namespace mcpat {
namespace circuit {

/** Delay coefficient for a single-pole RC stage (ln 2). */
constexpr double rcDelayFactor = 0.693;

/** Target per-stage effort (fanout) for buffer chains. */
constexpr double optimalStageEffort = 4.0;

/**
 * A geometrically tapered inverter chain driving a capacitive load.
 */
class BufferChain
{
  public:
    /**
     * @param c_load  load capacitance to drive, F
     * @param t       technology operating point
     * @param c_in_budget input-capacitance budget of the first stage;
     *        defaults to a minimum-size inverter
     * @param min_stages lower bound on the number of stages (e.g. to
     *        enforce signal polarity or pipelining granularity)
     */
    BufferChain(double c_load, const Technology &t,
                double c_in_budget = 0.0, int min_stages = 1);

    int numStages() const { return _numStages; }

    /** Propagation delay through the chain, s. */
    double delay() const { return _delay; }

    /** Dynamic energy per switching event (all stages), J. */
    double energyPerEvent() const { return _energy; }

    /** Subthreshold leakage power, W. */
    double subthresholdLeakage() const { return _subLeak; }

    /** Gate-leakage power, W. */
    double gateLeakage() const { return _gateLeak; }

    /** Total device area (diffusion + gate footprint), m^2. */
    double area() const { return _area; }

    /** Input capacitance of the first stage, F. */
    double inputC() const { return _inputC; }

  private:
    int _numStages = 0;
    double _delay = 0.0;
    double _energy = 0.0;
    double _subLeak = 0.0;
    double _gateLeak = 0.0;
    double _area = 0.0;
    double _inputC = 0.0;
};

/**
 * Delay of one static gate stage driving a lumped load.
 *
 * @param out_res   driver output resistance, ohm
 * @param self_c    driver self (junction) capacitance, F
 * @param load_c    external load, F
 */
inline double
stageDelay(double out_res, double self_c, double load_c)
{
    return rcDelayFactor * out_res * (self_c + load_c);
}

/**
 * Device area of an inverter of NMOS width wn (PMOS 2 wn): gate footprint
 * scaled by the technology's routed-logic density.
 */
double inverterArea(double wn, const Technology &t);

} // namespace circuit
} // namespace mcpat

#endif // MCPAT_CIRCUIT_LOGICAL_EFFORT_HH
