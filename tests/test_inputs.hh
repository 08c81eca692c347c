/**
 * @file
 * Inputs shared by several test files: the shipped configurations and
 * the seeded random system configurations of the property tests.
 */

#ifndef MCPAT_TESTS_TEST_INPUTS_HH
#define MCPAT_TESTS_TEST_INPUTS_HH

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <random>
#include <string>

#include "chip/system_params.hh"
#include "common/logging.hh"

namespace mcpat {

/** The configurations shipped in configs/. */
inline constexpr const char *kShippedConfigs[] = {
    "alpha21364.xml", "manycore_22nm.xml", "niagara.xml",
    "niagara2.xml",   "niagara_runtime.xml", "xeon_tulsa.xml"};

/** Path of configs/@p name from the repository root or a build
 *  directory below it. */
inline std::string
findConfig(const std::string &name)
{
    for (const std::string prefix :
         {"configs/", "../configs/", "../../configs/"}) {
        if (std::ifstream(prefix + name).good())
            return prefix + name;
    }
    throw ConfigError("cannot find configs/" + name);
}

/** The seeds every randomized suite runs. */
inline constexpr unsigned kRandomConfigSeeds[] = {1, 2, 3, 4, 5, 6, 7, 8};

/** Deterministic random configuration generator. */
class ConfigGen
{
  public:
    explicit ConfigGen(unsigned seed) : _rng(seed) {}

    chip::SystemParams
    next()
    {
        chip::SystemParams sys;
        sys.nodeNm = pick({180, 90, 65, 45, 32, 22});
        sys.coreFlavor = pick({tech::DeviceFlavor::HP,
                               tech::DeviceFlavor::LOP});
        sys.temperature = uniform(320.0, 400.0);
        sys.numCores = pick({1, 2, 4, 8, 16});

        auto &c = sys.core;
        c.outOfOrder = flip();
        c.threads = pick({1, 2, 4});
        const int width = pick({1, 2, 4, 8});
        c.fetchWidth = c.decodeWidth = c.issueWidth = c.commitWidth =
            width;
        c.intAlus = std::max(1, width - 1);
        c.fpus = pick({0, 1, 2});
        c.hasFpu = c.fpus > 0;
        c.muls = pick({0, 1});
        c.pipelineStages = pick({5, 8, 12, 20, 31});
        c.robEntries = pick({32, 64, 128, 192});
        c.intWindowEntries = pick({8, 16, 32, 64});
        c.fpWindowEntries = 16;
        c.physIntRegs = pick({64, 128, 256});
        c.physFpRegs = pick({64, 128});
        c.ratStyle = flip() ? logic::RatStyle::Ram
                            : logic::RatStyle::Cam;
        c.hasBranchPredictor = flip();
        c.powerGating = flip();
        // Slow clocks at big nodes, fast at small ones.
        c.clockRate = uniform(0.5, 1.5) * 4.0e10 / sys.nodeNm;
        c.icache.capacityBytes = pick({8, 16, 32, 64}) * 1024.0;
        c.dcache.capacityBytes = pick({8, 16, 32, 64}) * 1024.0;
        c.icache.assoc = pick({1, 2, 4, 8});
        c.dcache.assoc = pick({1, 2, 4, 8});

        if (flip()) {
            sys.numL2 = pick({1, 2, 4});
            sys.l2.capacityBytes = pick({256, 512, 1024, 4096}) *
                                   1024.0;
            sys.l2.assoc = pick({4, 8, 16});
            sys.l2.banks = pick({1, 2, 4});
            sys.l2.clockRate = c.clockRate / 2.0;
            sys.l2.dataCell = flip() ? array::CellType::SRAM
                                     : array::CellType::EDRAM;
        }
        if (flip()) {
            sys.hasNoc = true;
            sys.noc.topology = pick({uncore::NocTopology::Mesh2D,
                                     uncore::NocTopology::Ring,
                                     uncore::NocTopology::Bus,
                                     uncore::NocTopology::Crossbar});
            sys.noc.nodesX = pick({1, 2, 4});
            sys.noc.nodesY = pick({1, 2, 4});
            sys.noc.flitBits = pick({64, 128, 256});
            sys.noc.linkLength = 0.0;  // auto-derive
            sys.noc.clockRate = c.clockRate / 2.0;
        }
        sys.memCtrl.channels = pick({1, 2, 4});
        sys.memCtrl.dramType = pick({uncore::DramType::DDR2,
                                     uncore::DramType::DDR3,
                                     uncore::DramType::FbDimm});
        return sys;
    }

  private:
    template <typename T>
    T
    pick(std::initializer_list<T> values)
    {
        std::uniform_int_distribution<std::size_t> d(
            0, values.size() - 1);
        return *(values.begin() + d(_rng));
    }

    double
    uniform(double lo, double hi)
    {
        return std::uniform_real_distribution<double>(lo, hi)(_rng);
    }

    bool flip() { return pick({0, 1}) == 1; }

    std::mt19937 _rng;
};

} // namespace mcpat

#endif // MCPAT_TESTS_TEST_INPUTS_HH
