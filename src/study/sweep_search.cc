/**
 * @file
 * Pareto-frontier search implementation.
 */

#include "study/sweep_search.hh"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <map>
#include <ostream>
#include <set>
#include <sstream>

#include "chip/report_writer.hh"
#include "common/diagnostics.hh"
#include "common/instrument.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace mcpat {
namespace study {

std::array<std::size_t, SweepSpace::kAxes>
SweepSpace::dims() const
{
    return {styles.size(), clusterSizes.size(), l2BytesPerCore.size(),
            clockRates.size()};
}

std::size_t
SweepSpace::size() const
{
    std::size_t n = 1;
    for (std::size_t d : dims())
        n *= d;
    return n;
}

std::array<std::size_t, SweepSpace::kAxes>
SweepSpace::coords(std::size_t flat) const
{
    const auto d = dims();
    std::array<std::size_t, kAxes> c{};
    for (std::size_t a = kAxes; a-- > 0;) {
        c[a] = flat % d[a];
        flat /= d[a];
    }
    return c;
}

std::size_t
SweepSpace::flatIndex(const std::array<std::size_t, kAxes> &c) const
{
    const auto d = dims();
    std::size_t flat = 0;
    for (std::size_t a = 0; a < kAxes; ++a)
        flat = flat * d[a] + c[a];
    return flat;
}

CaseStudyConfig
SweepSpace::at(std::size_t flat) const
{
    const auto c = coords(flat);
    CaseStudyConfig cfg;
    cfg.nodeNm = nodeNm;
    cfg.totalCores = totalCores;
    cfg.style = styles[c[0]];
    cfg.coresPerCluster = clusterSizes[c[1]];
    cfg.l2BytesPerCore = l2BytesPerCore[c[2]];
    cfg.clockRate = clockRates[c[3]];
    return cfg;
}

SweepSpace
SweepSpace::reference()
{
    SweepSpace s;
    s.totalCores = 16;
    s.styles = {CoreStyle::InOrderMT, CoreStyle::OutOfOrder};
    s.clusterSizes = {1, 2, 4, 8};
    s.l2BytesPerCore = {128.0 * 1024,       256.0 * 1024,
                        512.0 * 1024,       768.0 * 1024,
                        1.0 * 1024 * 1024,  1.5 * 1024 * 1024,
                        2.0 * 1024 * 1024,  3.0 * 1024 * 1024,
                        4.0 * 1024 * 1024};
    s.clockRates = {1.0e9, 1.25e9, 1.5e9, 1.75e9, 2.0e9, 2.25e9,
                    2.5e9, 2.75e9, 3.0e9, 3.25e9, 3.5e9, 3.75e9,
                    4.0e9, 4.25e9, 4.5e9};
    return s;
}

bool
dominates(const Metrics &a, const Metrics &b)
{
    if (!a.finite())
        return false;
    if (!b.finite())
        return true;
    const bool no_worse = a.ed <= b.ed && a.ed2 <= b.ed2 &&
                          a.eda <= b.eda && a.ed2a <= b.ed2a;
    const bool better = a.ed < b.ed || a.ed2 < b.ed2 ||
                        a.eda < b.eda || a.ed2a < b.ed2a;
    return no_worse && better;
}

std::vector<std::size_t>
paretoFrontier(const std::vector<SweepSearchPoint> &points)
{
    std::vector<std::size_t> frontier;
    for (std::size_t i = 0; i < points.size(); ++i) {
        const Metrics &mi = points[i].result.meanMetrics;
        if (!mi.finite())
            continue;
        bool dominated = false;
        for (std::size_t j = 0; j < points.size() && !dominated; ++j)
            dominated = j != i &&
                dominates(points[j].result.meanMetrics, mi);
        if (!dominated)
            frontier.push_back(i);
    }
    return frontier;
}

namespace {

/** Unevaluated +/-1 axis-neighbors of a coordinate tuple. */
void
addNeighbors(const SweepSpace &space, std::size_t flat,
             const std::map<std::size_t, DesignPointResult> &evaluated,
             std::set<std::size_t> &out)
{
    const auto d = space.dims();
    const auto c = space.coords(flat);
    for (std::size_t a = 0; a < SweepSpace::kAxes; ++a) {
        for (int step : {-1, +1}) {
            if (step < 0 && c[a] == 0)
                continue;
            if (step > 0 && c[a] + 1 >= d[a])
                continue;
            auto n = c;
            n[a] += step;
            const std::size_t nf = space.flatIndex(n);
            if (!evaluated.count(nf))
                out.insert(nf);
        }
    }
}

std::vector<SweepSearchPoint>
toPointVector(const std::map<std::size_t, DesignPointResult> &evaluated)
{
    std::vector<SweepSearchPoint> points;
    points.reserve(evaluated.size());
    for (const auto &[flat, result] : evaluated)
        points.push_back({flat, result});
    return points;
}

} // namespace

SweepSearchResult
runSweepSearch(const SweepSpace &space, const SweepSearchOptions &opts)
{
    fatalIf(space.size() == 0,
            "sweep search needs at least one value on every axis");

    MCPAT_SPAN("sweep.search",
               opts.exhaustive ? "exhaustive" : "frontier");
    SweepSearchResult result;
    result.gridSize = space.size();
    const SweepEvalStats before = sweepEvalStats();

    // Flat index -> result, accumulated over refinement rounds.  One
    // journal session serves every round: it reads a resumed journal
    // once and commits each round's fresh points once the round is
    // done (or stopped by an exception), so a kill loses at most the
    // round in flight.
    std::map<std::size_t, DesignPointResult> evaluated;
    SweepJournalSession journal(opts.journal, opts.work);
    const auto evalBatch = [&](const std::set<std::size_t> &flats) {
        std::vector<std::size_t> order;
        std::vector<CaseStudyConfig> cfgs;
        for (std::size_t flat : flats) {
            order.push_back(flat);
            cfgs.push_back(space.at(flat));
        }
        const std::vector<DesignPointResult> rs =
            journal.evaluateRound(cfgs);
        for (std::size_t i = 0; i < order.size(); ++i)
            evaluated.emplace(order[i], rs[i]);
        ++result.rounds;
    };

    if (opts.exhaustive) {
        std::set<std::size_t> all;
        for (std::size_t flat = 0; flat < space.size(); ++flat)
            all.insert(flat);
        evalBatch(all);
    } else {
        // Seeds: every grid corner plus the center, so each axis's
        // extremes and midpoint anchor the first frontier estimate.
        std::set<std::size_t> seeds;
        const auto d = space.dims();
        for (unsigned mask = 0; mask < (1u << SweepSpace::kAxes);
             ++mask) {
            std::array<std::size_t, SweepSpace::kAxes> c{};
            for (std::size_t a = 0; a < SweepSpace::kAxes; ++a)
                c[a] = (mask & (1u << a)) ? d[a] - 1 : 0;
            seeds.insert(space.flatIndex(c));
        }
        {
            std::array<std::size_t, SweepSpace::kAxes> c{};
            for (std::size_t a = 0; a < SweepSpace::kAxes; ++a)
                c[a] = d[a] / 2;
            seeds.insert(space.flatIndex(c));
        }
        evalBatch(seeds);

        // Successive refinement: evaluate the unexplored neighbors of
        // the current frontier until the frontier is interior-stable
        // (no frontier point has an unevaluated axis-neighbor).
        for (;;) {
            const std::vector<SweepSearchPoint> points =
                toPointVector(evaluated);
            std::set<std::size_t> candidates;
            for (std::size_t pos : paretoFrontier(points))
                addNeighbors(space, points[pos].index, evaluated,
                             candidates);
            if (candidates.empty())
                break;
            evalBatch(candidates);
        }
    }

    result.points = toPointVector(evaluated);
    for (std::size_t pos : paretoFrontier(result.points))
        result.frontier.push_back(result.points[pos].index);

    const SweepEvalStats after = sweepEvalStats();
    result.fullEvaluations =
        after.fullEvaluations - before.fullEvaluations;
    result.replayed = after.replayed - before.replayed;
    return result;
}

namespace {

std::string
searchCell(double v)
{
    if (!std::isfinite(v))
        return "-";
    std::ostringstream os;
    os << std::setprecision(4) << v;
    return os.str();
}

} // namespace

void
printSweepSearchResult(std::ostream &os, const SweepSpace &space,
                       const SweepSearchResult &r)
{
    const auto d = space.dims();
    os << "Pareto frontier (" << r.frontier.size() << " of "
       << r.points.size() << " evaluated points, grid " << d[0] << "x"
       << d[1] << "x" << d[2] << "x" << d[3] << " = " << r.gridSize
       << "):\n";
    os << "  " << std::left << std::setw(26) << "design point"
       << std::right << std::setw(10) << "mm^2" << std::setw(10) << "W"
       << std::setw(12) << "ED" << std::setw(12) << "ED^2"
       << std::setw(12) << "EDA" << std::setw(12) << "ED^2A" << "\n";
    std::map<std::size_t, const SweepSearchPoint *> by_index;
    for (const auto &p : r.points)
        by_index[p.index] = &p;
    for (std::size_t flat : r.frontier) {
        const SweepSearchPoint &p = *by_index.at(flat);
        const DesignPointResult &res = p.result;
        os << "  " << std::left << std::setw(26) << res.config.label()
           << std::right << std::setw(10)
           << searchCell(res.area / (mm * mm)) << std::setw(10)
           << searchCell(res.tdp) << std::setw(12)
           << searchCell(res.meanMetrics.ed) << std::setw(12)
           << searchCell(res.meanMetrics.ed2) << std::setw(12)
           << searchCell(res.meanMetrics.eda) << std::setw(12)
           << searchCell(res.meanMetrics.ed2a) << "\n";
    }
    os << "Search: " << r.fullEvaluations << " full evaluations + "
       << r.replayed << " journal replays over " << r.rounds
       << " round(s)";
    if (r.fullEvaluations > 0 && r.gridSize > 0) {
        os << " (" << std::setprecision(3)
           << static_cast<double>(r.gridSize) / r.fullEvaluations
           << "x fewer than exhaustive)";
    }
    os << "\n";
}

void
writeSweepSearchJson(std::ostream &os, const SweepSpace &space,
                     const SweepSearchResult &r, double work)
{
    const auto d = space.dims();
    os << "{\n  \"schema\": \"mcpat-sweep-search-v1\",\n  \"work\": "
       << jsonRoundTrip(work) << ",\n  \"node_nm\": " << space.nodeNm
       << ",\n  \"total_cores\": " << space.totalCores
       << ",\n  \"dims\": [" << d[0] << ", " << d[1] << ", " << d[2]
       << ", " << d[3] << "]"
       << ",\n  \"grid_size\": " << r.gridSize
       << ",\n  \"full_evaluations\": " << r.fullEvaluations
       << ",\n  \"replayed\": " << r.replayed
       << ",\n  \"rounds\": " << r.rounds << ",\n  \"points\": [";
    for (std::size_t i = 0; i < r.points.size(); ++i) {
        const SweepSearchPoint &p = r.points[i];
        std::string fields;
        appendSweepPointFields(fields, p.result);
        os << (i ? "," : "") << "\n    {\"index\": " << p.index << ", "
           << fields << ", \"aggregates_only\": "
           << (p.result.aggregatesOnly ? "true" : "false") << "}";
    }
    os << "\n  ],\n  \"frontier\": [";
    for (std::size_t i = 0; i < r.frontier.size(); ++i)
        os << (i ? ", " : "") << r.frontier[i];
    os << "]\n}\n";
}

void
writeSweepSearchCsv(std::ostream &os, const SweepSpace &space,
                    const SweepSearchResult &r)
{
    (void)space;
    const std::set<std::size_t> frontier(r.frontier.begin(),
                                         r.frontier.end());
    os << "index,label,area_m2,tdp_w,mean_throughput,mean_power,"
          "ed,ed2,eda,ed2a,in_frontier\n";
    os.precision(std::numeric_limits<double>::max_digits10);
    for (const auto &p : r.points) {
        const DesignPointResult &res = p.result;
        os << p.index << "," << res.config.label() << ",";
        for (double v : {res.area, res.tdp, res.meanThroughput,
                         res.meanPower, res.meanMetrics.ed,
                         res.meanMetrics.ed2, res.meanMetrics.eda,
                         res.meanMetrics.ed2a}) {
            chip::writeCsvNumber(os, v);
            os << ",";
        }
        os << (frontier.count(p.index) ? 1 : 0) << "\n";
    }
}

} // namespace study
} // namespace mcpat
