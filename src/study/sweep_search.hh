/**
 * @file
 * Pareto-frontier design-space search over the case-study sweep.
 *
 * The paper's section 6 ranks design points by the combined
 * ED/ED2/EDA/ED2A metrics.  An exhaustive grid evaluates every point;
 * this module finds the same Pareto frontier with far fewer full-chip
 * evaluations by successive refinement: seed the grid's corners and
 * center, then repeatedly evaluate the axis-neighbors of the current
 * frontier until no frontier point has an unevaluated neighbor.  Cost
 * scales with the frontier's size, not the grid's.
 *
 * The search journals through the same "mcpat-sweep-journal-v2"
 * machinery as the exhaustive sweep: one SweepJournalSession for the
 * whole search commits each round's fresh points, in index order, with
 * one fsync after the round is done.  A killed search loses at most
 * the round in flight (a cancelled one loses no finished point),
 * replays finished points and continues — and
 * because replayed aggregates round-trip at full precision, the
 * resumed search takes bit-identical dominance decisions.
 */

#ifndef MCPAT_STUDY_SWEEP_SEARCH_HH
#define MCPAT_STUDY_SWEEP_SEARCH_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <vector>

#include "study/sweep.hh"

namespace mcpat {
namespace study {

/**
 * A rectangular design grid: the cross product of the axis value
 * lists below at a fixed node and core count.  Flat indices follow
 * row-major order over (style, cluster, l2, clock).
 */
struct SweepSpace
{
    int nodeNm = 22;
    int totalCores = 64;
    std::vector<CoreStyle> styles;
    std::vector<int> clusterSizes;
    std::vector<double> l2BytesPerCore;  ///< per-core L2 budget, bytes
    std::vector<double> clockRates;      ///< Hz

    static constexpr std::size_t kAxes = 4;

    /** Axis sizes, in flat-index order (style, cluster, l2, clock). */
    std::array<std::size_t, kAxes> dims() const;

    /** Total grid points (product of dims). */
    std::size_t size() const;

    /** Decode a flat index into per-axis indices. */
    std::array<std::size_t, kAxes> coords(std::size_t flat) const;

    /** Flat index of a coordinate tuple. */
    std::size_t flatIndex(const std::array<std::size_t, kAxes> &c) const;

    /** The design point at a flat index. */
    CaseStudyConfig at(std::size_t flat) const;

    /**
     * The small reference space the bench and CI measure the search
     * against: big enough that exhaustive evaluation visibly hurts,
     * small enough to grade in-process.
     */
    static SweepSpace reference();
};

/** One evaluated grid point. */
struct SweepSearchPoint
{
    std::size_t index = 0;  ///< flat index into the space
    DesignPointResult result;
};

/**
 * Does @p a Pareto-dominate @p b over (ed, ed2, eda, ed2a)?  True when
 * a is no worse on every metric and strictly better on at least one.
 * A non-finite candidate never dominates anything.
 */
bool dominates(const Metrics &a, const Metrics &b);

/**
 * Positions (into @p points) of the non-dominated entries, ascending.
 * Points with any non-finite aggregate metric are excluded — a
 * degenerate point neither joins the frontier nor knocks others off.
 */
std::vector<std::size_t>
paretoFrontier(const std::vector<SweepSearchPoint> &points);

/** Knobs for runSweepSearch(). */
struct SweepSearchOptions
{
    double work = 1.0e12;   ///< instructions per run (delay = work/tput)

    /** Evaluate the whole grid instead of searching. */
    bool exhaustive = false;

    /** Journal path + resume flag, as for SweepJournalSession. */
    SweepJournalOptions journal;
};

/** Outcome of a search (or exhaustive reference run). */
struct SweepSearchResult
{
    /** Every evaluated point, ascending by flat index. */
    std::vector<SweepSearchPoint> points;

    /** Flat indices of the Pareto frontier, ascending. */
    std::vector<std::size_t> frontier;

    std::size_t gridSize = 0;          ///< points in the full grid
    std::uint64_t fullEvaluations = 0; ///< evaluateDesignPoint calls made
    std::uint64_t replayed = 0;        ///< points served from the journal
    int rounds = 0;                    ///< refinement rounds (1 = seeds)
};

/**
 * Run the Pareto-frontier search (or, with opts.exhaustive, evaluate
 * the full grid) over @p space.  Deterministic for a given space and
 * work value; with a journal, interrupt/resume reproduces the same
 * frontier bit for bit.
 */
SweepSearchResult runSweepSearch(const SweepSpace &space,
                                 const SweepSearchOptions &opts);

/** Human-readable frontier table plus search/evaluation statistics. */
void printSweepSearchResult(std::ostream &os, const SweepSpace &space,
                            const SweepSearchResult &r);

/**
 * JSON document ("mcpat-sweep-search-v1"): grid shape, counters, every
 * evaluated point with aggregates, and the frontier's flat indices.
 * Numbers follow the repo-wide rule (max_digits10, null when
 * non-finite).
 */
void writeSweepSearchJson(std::ostream &os, const SweepSpace &space,
                          const SweepSearchResult &r, double work);

/** CSV of evaluated points (one row each, with an in_frontier flag). */
void writeSweepSearchCsv(std::ostream &os, const SweepSpace &space,
                         const SweepSearchResult &r);

} // namespace study
} // namespace mcpat

#endif // MCPAT_STUDY_SWEEP_SEARCH_HH
