/**
 * @file
 * On-chip interconnect fabrics: 2D mesh / ring of routers + links, a
 * shared bus, and a flat crossbar (the Niagara-style core-to-L2-bank
 * fabric).
 */

#ifndef MCPAT_UNCORE_NOC_HH
#define MCPAT_UNCORE_NOC_HH

#include <memory>

#include "common/field_table.hh"
#include "uncore/router.hh"

namespace mcpat {
namespace uncore {

/** Fabric topology. */
enum class NocTopology { Mesh2D, Torus2D, Ring, Bus, Crossbar };

/** Fabric parameters. */
struct NocParams
{
    std::string name = "NoC";
    NocTopology topology = NocTopology::Mesh2D;

    int nodesX = 4;
    int nodesY = 4;

    int flitBits = 128;
    /** Per-hop physical span; 0 = derive from tile area at build time
     *  (Processor sets it to the per-tile pitch). */
    double linkLength = 1.0 * mm;
    double clockRate = 1.0 * GHz;

    /** Use low-swing differential signaling on the links (saves link
     *  energy at some latency cost). */
    bool lowSwingLinks = false;

    RouterParams router;  ///< ports auto-set from the topology

    int nodes() const { return nodesX * nodesY; }

    auto operator<=>(const NocParams &) const = default;
};

inline constexpr fields::Spelling<NocTopology> kTopologySpellings[] = {
    {"mesh", NocTopology::Mesh2D}, {"torus", NocTopology::Torus2D},
    {"ring", NocTopology::Ring},   {"bus", NocTopology::Bus},
    {"crossbar", NocTopology::Crossbar}};

/** NocParams' XML rows (common/field_table.hh), its routers' with it. */
inline constexpr auto kNocFields = [](auto &&visit, auto &...n) {
    using namespace fields;
    visit(Field{"topology", OneOf{kTopologySpellings}}, n.topology...);
    visit(Field{"nodes_x", Int{1, 1024}}, n.nodesX...);
    visit(Field{"nodes_y", Int{1, 1024}}, n.nodesY...);
    visit(Field{"flit_bits", Int{1, 4096}}, n.flitBits...);
    // 0 keeps the "derive from tile pitch" behavior.
    visit(Field{"link_length_mm", Real{0.0, 100.0, mm}}, n.linkLength...);
    visit(Field{"clock_rate_mhz", kClockMhz}, n.clockRate...);
    visit(Field{"virtual_channels", Int{1, 64}}, n.router.virtualChannels...);
    visit(Field{"buffer_depth", Int{1, 1024}}, n.router.bufferDepth...);
    visit(Field{"low_swing_links", Flag{}}, n.lowSwingLinks...);
};

/**
 * One interconnect fabric instance.
 */
class Noc
{
  public:
    Noc(NocParams params, const Technology &t);

    const NocParams &params() const { return _params; }

    /** Energy to move one flit one hop (router + link), J. */
    double energyPerFlitHop() const;

    /** Average hop count between two nodes of this topology. */
    double averageHops() const;

    /** Fabric traversal latency at average distance, s. */
    double averageLatency() const;

    double area() const;

    /**
     * Report for aggregate injection of @p flits_per_cycle (whole
     * fabric, TDP and runtime); each flit pays averageHops() hops.
     */
    Report makeReport(double tdp_flits, double rt_flits) const;

  private:
    NocParams _params;
    std::unique_ptr<Router> _router;

    double _linkEnergyPerFlit = 0.0;
    double _linkDelay = 0.0;
    double _linkSubLeak = 0.0;   ///< all links
    double _linkGateLeak = 0.0;
    double _linkArea = 0.0;
    int _numLinks = 0;
};

} // namespace uncore
} // namespace mcpat

#endif // MCPAT_UNCORE_NOC_HH
