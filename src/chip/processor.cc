/**
 * @file
 * Processor assembly.
 */

#include "chip/processor.hh"

#include <cmath>
#include <functional>
#include <vector>

#include "chip/component_memo.hh"
#include "common/instrument.hh"
#include "common/parallel.hh"

namespace mcpat {
namespace chip {

std::vector<CoreGroup>
SystemParams::resolvedCoreGroups() const
{
    if (!coreGroups.empty())
        return coreGroups;
    CoreGroup g;
    g.core = core;
    g.count = numCores;
    return {g};
}

int
SystemParams::totalCores() const
{
    int n = 0;
    for (const auto &g : resolvedCoreGroups())
        n += g.count;
    return n;
}

Processor::Processor(SystemParams params)
    : _params(std::move(params))
{
    _params.validate();

    _tech = std::make_unique<tech::Technology>(
        _params.nodeNm, _params.coreFlavor, _params.temperature);
    _tech->setProjection(_params.projection);
    if (_params.vdd > 0.0)
        _tech->setVdd(_params.vdd);

    // Components are mutually independent (each reads only _params and
    // the shared const Technology), so build them in parallel.  Every
    // task writes its own member; the NoC is deferred because its link
    // length derives from core and L2 areas.  Each build goes through
    // the component memo: a bundle already built for an earlier chip —
    // the previous sweep point, another batch item, the last server
    // request — is reused verbatim instead of re-assembled.
    MCPAT_SPAN("assemble", _params.name);
    ComponentMemo &memo = ComponentMemo::instance();
    const auto groups = _params.resolvedCoreGroups();
    _cores.resize(groups.size());
    std::vector<std::function<void()>> build;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        build.push_back([this, g, &groups, &memo] {
            MCPAT_SPAN("build.core", groups[g].core.name);
            _cores[g] = memo.get<core::Core>(groups[g].core, *_tech);
        });
    }
    if (_params.numL2 > 0) {
        build.push_back([this, &memo] {
            MCPAT_SPAN("build.l2");
            _l2 = memo.get<uncore::SharedCache>(_params.l2, *_tech);
        });
    }
    if (_params.numL3 > 0) {
        build.push_back([this, &memo] {
            MCPAT_SPAN("build.l3");
            _l3 = memo.get<uncore::SharedCache>(_params.l3, *_tech);
        });
    }
    if (_params.hasDirectory) {
        build.push_back([this, &memo] {
            MCPAT_SPAN("build.directory");
            _directory = memo.get<uncore::Directory>(_params.directory,
                                                     *_tech);
        });
    }
    if (_params.hasMemCtrl) {
        build.push_back([this, &memo] {
            MCPAT_SPAN("build.memctrl");
            _memCtrl = memo.get<uncore::MemoryController>(
                _params.memCtrl, *_tech);
        });
    }
    if (_params.hasIo) {
        build.push_back([this, &memo] {
            MCPAT_SPAN("build.io");
            _io = memo.get<uncore::ChipIo>(_params.io, *_tech);
        });
    }
    parallel::parallelFor(build.size(),
                          [&](std::size_t i) { build[i](); });
    if (_params.hasNoc) {
        MCPAT_SPAN("build.noc");
        uncore::NocParams noc = _params.noc;
        if (noc.linkLength <= 0.0) {
            // Derive the hop span from the tile pitch: each fabric
            // node carries its share of cores and shared cache.  The
            // memo keys on the *resolved* link length, so two chips
            // share a NoC exactly when their derived pitches agree.
            double tile_area = 0.0;
            for (std::size_t g = 0; g < groups.size(); ++g)
                tile_area += _cores[g]->area() * groups[g].count;
            if (_l2)
                tile_area += _l2->area() * _params.numL2;
            tile_area /= std::max(1, noc.nodes());
            noc.linkLength = std::sqrt(std::max(tile_area, 0.01 * mm2));
        }
        _noc = memo.get<uncore::Noc>(noc, *_tech);
    }

    MCPAT_SPAN("tdp");
    _tdpStats = stats::ChipStats::tdp(_params);
    _tdpReport = makeReport(_tdpStats);
    _area = _tdpReport.area;
}

Report
Processor::makeReport(const stats::ChipStats &rt) const
{
    // The TDP vector depends only on _params; reuse the one derived at
    // construction instead of recomputing it per report (callers like
    // evaluateDesignPoint request one report per workload).
    const stats::ChipStats &tdp_stats = _tdpStats;

    Report r;
    r.name = _params.name;

    // --- Cores: model one per group, replicate by count; keep one
    //     child per group for detail. ----------------------------------
    {
        const auto groups = _params.resolvedCoreGroups();
        Report cores;
        cores.name = "Total Cores (" +
                     std::to_string(_params.totalCores()) + " cores)";
        for (std::size_t g = 0; g < groups.size(); ++g) {
            const core::CoreStats &g_tdp =
                (tdp_stats.perGroup.size() == groups.size())
                    ? tdp_stats.perGroup[g]
                    : tdp_stats.perCore;
            const core::CoreStats &g_rt =
                (rt.perGroup.size() == groups.size()) ? rt.perGroup[g]
                                                      : rt.perCore;
            Report one = _cores[g]->makeReport(g_tdp, g_rt);
            if (groups.size() > 1) {
                one.name = groups[g].core.name + " (x" +
                           std::to_string(groups[g].count) + ")";
            }
            cores.accumulate(one, groups[g].count);
            cores.children.push_back(std::move(one));
        }
        r.addChild(std::move(cores));
    }

    if (_l2) {
        Report one = _l2->makeReport(tdp_stats.l2Rates, rt.l2Rates);
        Report l2s;
        l2s.name = "Total L2s (" + std::to_string(_params.numL2) +
                   " instances)";
        l2s.accumulate(one, _params.numL2);
        l2s.children.push_back(std::move(one));
        r.addChild(std::move(l2s));
    }
    if (_l3) {
        Report one = _l3->makeReport(tdp_stats.l3Rates, rt.l3Rates);
        Report l3s;
        l3s.name = "Total L3s (" + std::to_string(_params.numL3) +
                   " instances)";
        l3s.accumulate(one, _params.numL3);
        l3s.children.push_back(std::move(one));
        r.addChild(std::move(l3s));
    }
    if (_directory) {
        r.addChild(_directory->makeReport(tdp_stats.directoryRates,
                                          rt.directoryRates));
    }
    if (_noc) {
        r.addChild(_noc->makeReport(tdp_stats.nocFlitsPerCycle,
                                    rt.nocFlitsPerCycle));
    }
    if (_memCtrl) {
        r.addChild(_memCtrl->makeReport(tdp_stats.mcUtilization,
                                        rt.mcUtilization));
    }
    if (_io) {
        r.addChild(_io->makeReport(tdp_stats.ioActivityScale,
                                   rt.ioActivityScale));
    }

    // Decoupling capacitance and power-grid cells: real floorplans
    // dedicate ~12% of placed area to decap.
    Report decap;
    decap.name = "Decap + Power Grid";
    decap.area = 0.12 * r.area;
    r.addChild(std::move(decap));

    // Pad ring: a ~0.4 mm I/O ring around the die perimeter.
    {
        const double ring_w = 0.4 * mm;
        const double edge = std::sqrt(r.area);
        Report ring;
        ring.name = "Pad Ring";
        ring.area = 4.0 * edge * ring_w;
        r.addChild(std::move(ring));
    }

    // Chip-level white space (routing channels, floorplan gaps,
    // unmodeled glue).
    r.area *= (1.0 + _params.whiteSpaceFraction);
    return r;
}

bool
Processor::meetsTiming() const
{
    for (const auto &c : _cores)
        if (!c->meetsTiming())
            return false;
    return true;
}

} // namespace chip
} // namespace mcpat
