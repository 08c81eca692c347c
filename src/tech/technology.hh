/**
 * @file
 * Technology-level modeling: per-node device and wire parameters.
 *
 * McPAT derives its device parameters from the ITRS roadmap (via MASTAR).
 * Neither resource is available offline, so this reproduction substitutes a
 * hand-curated, internally consistent parameter table per node and device
 * flavor with the same structure and ITRS-like scaling ratios (DESIGN.md
 * section 5).  Six generations are covered: 180, 90, 65, 45, 32 and 22 nm,
 * each with the three ITRS transistor flavors:
 *
 *  - HP   (high performance): low Vth, fast, leaky — logic in server cores;
 *  - LSTP (low standby power): high Vth, slow, ~1000x less subthreshold
 *    leakage — large caches, embedded parts;
 *  - LOP  (low operating power): low Vdd, intermediate leakage.
 *
 * Wires come in three layer classes (local / intermediate / global) under
 * two ITRS projections (aggressive / conservative), exactly as in the
 * paper's interconnect discussion.
 */

#ifndef MCPAT_TECH_TECHNOLOGY_HH
#define MCPAT_TECH_TECHNOLOGY_HH

#include <array>
#include <compare>
#include <vector>

#include "common/field_table.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace mcpat {
namespace tech {

/** ITRS transistor flavor. */
enum class DeviceFlavor { HP = 0, LSTP = 1, LOP = 2 };

/** Metal layer class for signal wires. */
enum class WireLayer { Local = 0, Intermediate = 1, Global = 2 };

/** ITRS interconnect projection. */
enum class WireProjection { Aggressive = 0, Conservative = 1 };

/** The XML spellings of each device flavor and wire projection. */
inline constexpr fields::Spelling<DeviceFlavor> kFlavorSpellings[] = {
    {"HP", DeviceFlavor::HP},     {"hp", DeviceFlavor::HP},
    {"LSTP", DeviceFlavor::LSTP}, {"lstp", DeviceFlavor::LSTP},
    {"LOP", DeviceFlavor::LOP},   {"lop", DeviceFlavor::LOP}};
inline constexpr fields::Spelling<WireProjection> kProjectionSpellings[] = {
    {"aggressive", WireProjection::Aggressive},
    {"conservative", WireProjection::Conservative}};

constexpr int numDeviceFlavors = 3;
constexpr int numWireLayers = 3;
constexpr int numWireProjections = 2;

/** Smallest / largest node the tables cover (inclusive, nm);
 *  intermediate nodes are interpolated. */
constexpr int kMinTechNode = 22;
constexpr int kMaxTechNode = 180;

/**
 * Transistor parameters for one (node, flavor) pair.
 *
 * Current densities are per meter of gate width (numerically equal to
 * uA/um); capacitances are per meter of gate width.
 */
struct DeviceParams
{
    double vdd;        ///< nominal supply voltage, V
    double vth;        ///< threshold voltage, V
    double ionN;       ///< NMOS drive current density, A/m
    double ionP;       ///< PMOS drive current density, A/m
    double ioffN;      ///< NMOS subthreshold current density at 300 K, A/m
    double ioffP;      ///< PMOS subthreshold current density at 300 K, A/m
    double igate;      ///< gate-leakage current density, A/m
    double cGate;      ///< gate capacitance per width (incl. fringe), F/m
    double cJunction;  ///< source/drain junction capacitance per width, F/m
    double fo4;        ///< fanout-of-4 inverter delay at nominal Vdd, s
};

/** Electrical parameters of one wire layer under one projection. */
struct WireParams
{
    double pitch;      ///< wire pitch, m
    double width;      ///< conductor width, m
    double thickness;  ///< conductor thickness, m
    double resPerM;    ///< resistance per length, ohm/m
    double capPerM;    ///< total capacitance per length, F/m
};

/**
 * One technology generation: devices for all flavors, wires for all
 * layer/projection pairs, and layout-density constants.
 */
struct TechNode
{
    int nodeNm;        ///< feature size, nm (e.g. 65)
    double feature;    ///< feature size, m

    std::array<DeviceParams, numDeviceFlavors> device;
    std::array<std::array<WireParams, numWireProjections>, numWireLayers>
        wire;

    // Layout densities, in multiples of F^2 (feature size squared).
    double sramCellAreaF2;   ///< 6T SRAM cell
    double camCellAreaF2;    ///< CAM cell (match + storage)
    double dffAreaF2;        ///< edge-triggered flip-flop, per bit
    double logicGateAreaF2;  ///< routed NAND2-equivalent standard cell
    double sramCellAspect;   ///< SRAM cell height / width
};

/**
 * The resolved operating point a built model depends on.  Cache keys
 * carry it whole, so two technologies share cached results exactly
 * when these five fields compare equal.
 */
struct OperatingPoint
{
    int nodeNm = 0;
    DeviceFlavor flavor = DeviceFlavor::HP;
    double vdd = 0.0;
    double temperature = 0.0;
    WireProjection projection = WireProjection::Aggressive;

    auto operator<=>(const OperatingPoint &) const = default;
};

/**
 * Handle to a fully resolved technology operating point:
 * node + flavor + supply voltage + junction temperature + wire projection.
 *
 * All circuit-level code consumes this class rather than the raw tables so
 * that DVFS (setVdd) and temperature are applied in exactly one place.
 */
class Technology
{
  public:
    /**
     * @param node_nm   one of 180, 90, 65, 45, 32, 22
     * @param flavor    transistor flavor for logic in this domain
     * @param temperature_k junction temperature for leakage, K
     */
    explicit Technology(int node_nm,
                        DeviceFlavor flavor = DeviceFlavor::HP,
                        double temperature_k = 360.0);

    /** Raw per-node table (all flavors). */
    const TechNode &node() const { return *_node; }

    int nodeNm() const { return _node->nodeNm; }
    double feature() const { return _node->feature; }

    DeviceFlavor flavor() const { return _flavor; }

    /** Device parameters of the selected flavor. */
    const DeviceParams &device() const { return device(_flavor); }
    /** Device parameters of an explicit flavor. */
    const DeviceParams &
    device(DeviceFlavor f) const
    {
        return _node->device[static_cast<int>(f)];
    }

    /** Operating supply voltage (nominal unless overridden by DVFS). */
    double vdd() const { return _vdd; }

    /**
     * Override the supply voltage (DVFS).  Must stay above Vth + 0.1 V
     * so the alpha-power delay model remains valid.
     */
    void setVdd(double vdd);

    double temperature() const { return _temperature; }
    void setTemperature(double t);

    /**
     * Subthreshold-leakage multiplier at the current temperature and Vdd
     * relative to the table reference (300 K, nominal Vdd).
     *
     * Temperature: leakage doubles roughly every 20 K.  Voltage: DIBL makes
     * Ioff approximately linear in Vdd near nominal.
     */
    double leakageScale() const { return _leakageScale; }

    /** Gate-leakage multiplier: ~quadratic in Vdd, temperature-flat. */
    double gateLeakageScale() const { return _gateLeakageScale; }

    /**
     * Gate-delay multiplier at the current Vdd relative to nominal, from
     * the alpha-power law: delay ~ Vdd / (Vdd - Vth)^alpha with alpha 1.3.
     */
    double delayScale() const { return _delayScale; }

    /** FO4 delay at the current operating point, s. */
    double fo4() const { return device().fo4 * delayScale(); }

    /** Dynamic-energy multiplier: (Vdd / Vdd_nominal)^2. */
    double energyScale() const;

    WireProjection projection() const { return _projection; }
    void setProjection(WireProjection p) { _projection = p; }

    OperatingPoint
    operatingPoint() const
    {
        return {nodeNm(), _flavor, _vdd, _temperature, _projection};
    }

    /** Wire parameters for a layer under the active projection. */
    const WireParams &
    wire(WireLayer layer) const
    {
        return wire(layer, _projection);
    }
    const WireParams &
    wire(WireLayer layer, WireProjection p) const
    {
        return _node->wire[static_cast<int>(layer)][static_cast<int>(p)];
    }

    // Layout-density helpers (areas in m^2).
    double sramCellArea() const { return f2Area(_node->sramCellAreaF2); }
    double camCellArea() const { return f2Area(_node->camCellAreaF2); }
    double dffArea() const { return f2Area(_node->dffAreaF2); }
    double logicGateArea() const { return f2Area(_node->logicGateAreaF2); }

    /** The technology nodes available in the table. */
    static const std::vector<int> &availableNodes();

  private:
    /** An area of @p f2 feature-size squares, m^2. */
    double
    f2Area(double f2) const
    {
        const double f = _node->feature;
        return f2 * f * f;
    }

    /** Recompute the operating-point scales from Vdd and temperature;
     *  every setter of either calls this, so the accessors stay loads. */
    void refreshScales();

    const TechNode *_node;
    DeviceFlavor _flavor;
    double _vdd;
    double _temperature;
    WireProjection _projection = WireProjection::Aggressive;
    double _leakageScale = 1.0;
    double _gateLeakageScale = 1.0;
    double _delayScale = 1.0;
};

/**
 * Look up the raw parameter table for a node.  Table nodes (180, 90,
 * 65, 45, 32, 22) return their entries directly; any other node inside
 * [22, 180] is interpolated between its bracketing table nodes
 * (geometric interpolation in feature size for currents, capacitances,
 * and FO4; linear for voltages) with wires recomputed from the actual
 * geometry.  Throws ConfigError outside the covered range.
 */
const TechNode &lookupTechNode(int node_nm);

} // namespace tech
} // namespace mcpat

#endif // MCPAT_TECH_TECHNOLOGY_HH
