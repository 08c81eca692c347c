/**
 * @file
 * The array model with its organization optimizer — McPAT's equivalent of
 * an embedded CACTI.
 *
 * Given an ArrayParams description, the constructor sweeps internal
 * organizations (wordline/bitline partitioning and folding), evaluates
 * each candidate's delay/energy/leakage/area with the Subarray and wire
 * models, and keeps the best candidate under a CACTI-style weighted
 * objective, honoring an optional cycle-time constraint.
 */

#ifndef MCPAT_ARRAY_ARRAY_MODEL_HH
#define MCPAT_ARRAY_ARRAY_MODEL_HH

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "array/array_params.hh"
#include "common/report.hh"

namespace mcpat {
namespace array {

using tech::Technology;

class CamSearch;
class Subarray;

/**
 * Organization-search observability: candidate evaluations and
 * shape-table Subarray builds.  Process-global, thread-safe.
 */
struct OptimizerSearchStats
{
    std::uint64_t evaluated = 0;  ///< candidates fully evaluated
    std::uint64_t pruned = 0;     ///< always 0: no candidate is skipped
    std::uint64_t subarrays = 0;  ///< Subarrays built by the shape table
};

/**
 * Whether ArrayModel::optimize uses the shape-table search (true, the
 * default), which builds one Subarray per distinct subarray shape, or
 * the reference search (false), which builds a fresh Subarray for every
 * organization.  Both evaluate every feasible organization and pick
 * bit-identical winners, so this switch exists for verification and
 * benchmarking, not correctness.
 */
bool optimizerPruning();
void setOptimizerPruning(bool on);

OptimizerSearchStats optimizerSearchStats();
void resetOptimizerSearchStats();

/**
 * The partition counts (ndwl, ndbl) and foldings (nspd) the optimizer
 * crosses into its 216 organizations.  Every entry is a power of two,
 * which listOrganizations relies on.
 */
inline constexpr int kPartitions[] = {1, 2, 4, 8, 16, 32};
inline constexpr double kFoldings[] = {0.25, 0.5, 1.0, 2.0, 4.0, 8.0};

/** Subarray shape implied by an organization, with feasibility. */
struct OrgGeometry
{
    int subRows = 0;
    int subCols = 0;
    bool feasible = false;
};

/** One organization's subarray shape, by direct division. */
OrgGeometry orgGeometry(const ArrayOrg &org, int rows_per_bank,
                        int row_bits);

/** The feasible organizations of one solve and their subarray shapes. */
struct OrgListing
{
    struct Entry
    {
        ArrayOrg org;
        OrgGeometry geom;
        std::size_t shape;  ///< shape number, in first-seen order
    };
    std::vector<Entry> orgs;  ///< canonical (ndwl, ndbl, nspd) order
    std::size_t shapes = 0;   ///< distinct (subRows, subCols)
};

/**
 * Exactly orgGeometry's feasible organizations, in canonical order,
 * computed in closed form: 22 row and column counts instead of one
 * division pair per organization.
 */
OrgListing listOrganizations(int rows_per_bank, int row_bits);

/**
 * Per-cycle access rates used to turn per-access energies into power.
 */
struct AccessRates
{
    double reads = 0.0;     ///< read accesses per cycle
    double writes = 0.0;    ///< write accesses per cycle
    double searches = 0.0;  ///< CAM searches per cycle

    static AccessRates
    rw(double r, double w)
    {
        return {r, w, 0.0};
    }
};

/**
 * A fully solved array structure.
 */
class ArrayModel
{
  public:
    /**
     * Build and optimize the array.
     *
     * @param params architectural description
     * @param t      technology operating point of the surrounding logic;
     *               the array re-targets it to params.flavor internally
     * @param weights optimizer objective weights
     */
    ArrayModel(ArrayParams params, const Technology &t,
               OptimizationWeights weights = {});

    const ArrayParams &params() const { return _params; }
    const ArrayResult &result() const { return _result; }

    // Convenience accessors.
    double area() const { return _result.area; }
    double accessDelay() const { return _result.accessDelay; }
    double cycleTime() const { return _result.cycleTime; }
    double readEnergy() const { return _result.readEnergy; }
    double writeEnergy() const { return _result.writeEnergy; }
    double searchEnergy() const { return _result.searchEnergy; }
    double subthresholdLeakage() const
    {
        return _result.subthresholdLeakage;
    }
    double gateLeakage() const { return _result.gateLeakage; }

    /** True when a cycle-time target was given and met. */
    bool meetsTiming() const { return _meetsTiming; }

    /**
     * Summarize as a Report.
     *
     * @param frequency clock frequency, Hz
     * @param tdp       access rates defining peak (TDP) dynamic power
     * @param runtime   access rates from simulation statistics
     */
    Report makeReport(double frequency, const AccessRates &tdp,
                      const AccessRates &runtime) const;

  private:
    ArrayParams _params;
    Technology _tech;     ///< re-flavored for this array
    ArrayResult _result;
    bool _meetsTiming = true;

    struct Candidate;

    std::optional<Candidate> evaluate(const ArrayOrg &org) const;
    /** @p cam is the shape's search path, null unless a CAM array. */
    Candidate evaluateWith(const ArrayOrg &org, const OrgGeometry &geom,
                           const Subarray &sub, const CamSearch *cam) const;
    void searchExhaustive(std::vector<Candidate> &cands) const;
    void searchShapeTable(std::vector<Candidate> &cands) const;
    void selectBest(std::vector<Candidate> &cands,
                    const OptimizationWeights &weights);
    void optimize(const OptimizationWeights &weights);
};

} // namespace array
} // namespace mcpat

#endif // MCPAT_ARRAY_ARRAY_MODEL_HH
