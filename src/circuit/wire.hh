/**
 * @file
 * On-chip wire models: plain RC wires, optimally repeated wires, and
 * low-swing differential links.
 *
 * These are the workhorses for everything long on the chip: cache
 * H-trees, NoC links, the crossbar in Niagara-class chips, result buses,
 * and the clock spine.
 */

#ifndef MCPAT_CIRCUIT_WIRE_HH
#define MCPAT_CIRCUIT_WIRE_HH

#include "circuit/transistor.hh"

namespace mcpat {
namespace circuit {

using tech::WireLayer;

/**
 * A single wire of a given length on a given metal layer.
 */
class Wire
{
  public:
    Wire(double length, WireLayer layer, const Technology &t);

    double length() const { return _length; }
    double resistance() const { return _res; }
    double capacitance() const { return _cap; }

    /**
     * Delay without repeaters: distributed line driven by drive_res into
     * c_load, s.
     */
    double unrepeatedDelay(double drive_res, double c_load) const;

  private:
    const Technology &_tech;
    double _length;
    double _res;
    double _cap;
};

/**
 * A long wire broken into optimally repeated segments (Bakoglu sizing).
 *
 * Repeater size and spacing minimize delay; energy and leakage include
 * both the wire and the inserted inverters.  A repeated wire's delay is
 * linear in length, so per-length figures are also exposed.
 */
class RepeatedWire
{
  public:
    /**
     * @param length wire length, m
     * @param layer  metal layer class
     * @param t      technology operating point
     * @param size_derate scale repeaters below the delay-optimal size
     *        (1.0 = delay-optimal; smaller saves energy at some delay cost)
     */
    RepeatedWire(double length, WireLayer layer, const Technology &t,
                 double size_derate = 1.0);

    int numRepeaters() const { return _numRepeaters; }
    double repeaterWidth() const { return _repWidth; }

    /** End-to-end delay, s. */
    double delay() const { return _delay; }

    /** Dynamic energy per transmitted event (wire + repeaters), J. */
    double energyPerEvent() const { return _energy; }

    /** Subthreshold leakage of all repeaters, W. */
    double subthresholdLeakage() const { return _subLeak; }

    /** Gate leakage of all repeaters, W. */
    double gateLeakage() const { return _gateLeak; }

    /** Repeater device area, m^2 (wire itself lives on metal). */
    double area() const { return _area; }

  private:
    int _numRepeaters = 0;
    double _repWidth = 0.0;
    double _delay = 0.0;
    double _energy = 0.0;
    double _subLeak = 0.0;
    double _gateLeak = 0.0;
    double _area = 0.0;
};

/**
 * Low-swing differential wire: a full-swing driver launches a reduced
 * voltage (vSwing) onto two wires sensed by a differential amplifier.
 * Used for long, energy-critical broadcast paths.
 */
class LowSwingWire
{
  public:
    LowSwingWire(double length, WireLayer layer, const Technology &t);

    double delay() const { return _delay; }
    double energyPerEvent() const { return _energy; }
    double subthresholdLeakage() const { return _subLeak; }
    double gateLeakage() const { return _gateLeak; }
    double area() const { return _area; }

    static constexpr double vSwing = 0.1;  ///< signal swing, V

  private:
    double _delay = 0.0;
    double _energy = 0.0;
    double _subLeak = 0.0;
    double _gateLeak = 0.0;
    double _area = 0.0;
};

} // namespace circuit
} // namespace mcpat

#endif // MCPAT_CIRCUIT_WIRE_HH
