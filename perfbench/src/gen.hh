/**
 * @file
 * Seeded input generator for the benchmark: chip perturbations of the
 * shipped configurations, simulator stat intervals, and sweep spaces.
 *
 * Everything here is a pure function of the seed it is given, so one
 * seed always yields the same inputs.  The model only ever sees the
 * generated XML (or SweepSpace); it never sees the seed.
 */

#ifndef PERFBENCH_GEN_HH
#define PERFBENCH_GEN_HH

#include <cstdint>
#include <string>
#include <vector>

#include "chip/system_params.hh"
#include "config/xml_parser.hh"
#include "study/sweep_search.hh"

namespace perfbench {

/** SplitMix64: small, seedable, and identical on every platform. */
class Rng
{
  public:
    explicit Rng(std::uint64_t seed) : _state(seed) {}

    std::uint64_t next();

    /** Uniform integer in [0, n); n must be positive. */
    std::uint64_t below(std::uint64_t n) { return next() % n; }

    /** Uniform double in [lo, hi). */
    double uniform(double lo, double hi);

  private:
    std::uint64_t _state;
};

/** Mix a workload seed with a stream number into an independent seed. */
std::uint64_t subSeed(std::uint64_t seed, std::uint64_t stream);

/** One generated chip: a name for messages and its XML text. */
struct ChipInput
{
    std::string name;
    std::string xml;
};

/**
 * Directory of the shipped configurations, relative to the repository
 * root (the benchmark's working directory).
 */
inline constexpr const char *kConfigDir = "configs";

/** The shipped configurations the generator perturbs. */
const std::vector<std::string> &baseConfigNames();

/**
 * @p perBase distinct valid chips perturbed from each shipped config
 * under kConfigDir (technology node, core count, shared-cache size
 * and associativity, core clock).  A candidate that fails
 * loadSystemParams / SystemParams::check validation, or repeats an
 * earlier chip, is redrawn.  Throws when a base config cannot be read
 * or no valid perturbation is found.
 */
std::vector<ChipInput> chipSet(std::uint64_t seed, int perBase);

/**
 * A copy of @p chip whose Core, L2/L3, Noc and MemoryController
 * components carry one fresh seeded interval of simulator counters
 * (replacing any <stat> they had), as a performance simulator would
 * send at the end of each interval.
 */
mcpat::config::XmlNode
withStatInterval(const mcpat::config::XmlNode &chip, Rng &rng);

/**
 * A sweep space shaped like SweepSpace::reference() (same axes and
 * sizes, so the search does comparable work for every seed) whose
 * clock axis is jittered by the seed.
 */
mcpat::study::SweepSpace sweepSpace(std::uint64_t seed);

/** Serialize an XML tree (attribute values escaped). */
std::string writeXml(const mcpat::config::XmlNode &root);

/**
 * Empty when @p xml parses and passes loadSystemParams plus
 * SystemParams::check without errors; otherwise the reason.
 */
std::string validationError(const std::string &xml);

/** The system parameters of a generated chip's XML. */
mcpat::chip::SystemParams systemOf(const std::string &xml);

/** Whole file as a string; throws when unreadable. */
std::string readFile(const std::string &path);

} // namespace perfbench

#endif // PERFBENCH_GEN_HH
