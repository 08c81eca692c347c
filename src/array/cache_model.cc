/**
 * @file
 * Cache model implementation.
 */

#include "array/cache_model.hh"

#include <algorithm>
#include <cmath>

#include "circuit/transistor.hh"

namespace mcpat {
namespace array {

using namespace circuit;

int
CacheParams::sets() const
{
    const int ways = (assoc == 0)
        ? static_cast<int>(capacityBytes / blockBytes)
        : assoc;
    return static_cast<int>(capacityBytes / blockBytes / ways);
}

int
CacheParams::tagBits() const
{
    const int index_bits = (assoc == 0)
        ? 0
        : static_cast<int>(std::ceil(std::log2(std::max(1, sets()))));
    const int offset_bits =
        static_cast<int>(std::ceil(std::log2(blockBytes)));
    return physicalAddressBits - index_bits - offset_bits + extraTagBits;
}

void
CacheParams::validate() const
{
    // A message is built only when its check fails.
    const auto fail = [this](bool cond, const char *what) {
        if (cond)
            throw ConfigError("cache '" + name + "': " + what);
    };
    fail(capacityBytes <= 0, "empty capacity");
    fail(blockBytes <= 0 || (blockBytes & (blockBytes - 1)) != 0,
         "block size must be a power of two");
    fail(assoc < 0, "negative associativity");
    fail(capacityBytes < static_cast<double>(blockBytes) * std::max(assoc, 1),
         "capacity below one set");
    fail(banks <= 0, "banks must be positive");
}

CacheModel::CacheModel(CacheParams params, const Technology &t)
    : _params(std::move(params))
{
    _params.validate();
    const bool fully_assoc = (_params.assoc == 0);
    const int block_bits = static_cast<int>(
        _params.blockBytes * 8 * (_params.ecc ? 1.125 : 1.0));
    const int ways = fully_assoc
        ? static_cast<int>(_params.capacityBytes / _params.blockBytes)
        : _params.assoc;

    // --- Data array: one block per physical row (ways are separate
    //     rows/stripes); a parallel read activates all ways of the set,
    //     charged below as an energy multiplier. -----------------------
    ArrayParams dp;
    dp.name = "Data Array";
    dp.rows = fully_assoc ? ways : _params.sets() * ways;
    dp.bits = block_bits;
    dp.readWritePorts = _params.readWritePorts;
    dp.readPorts = _params.readPorts;
    dp.writePorts = _params.writePorts;
    dp.banks = _params.banks;
    dp.targetCycleTime = _params.targetCycleTime;
    dp.flavor = _params.flavor;
    dp.cellType = _params.dataCell;
    _data = std::make_unique<ArrayModel>(dp, t);

    // --- Tag array: RAM tags for set-associative, CAM for fully-assoc.
    ArrayParams tp;
    tp.name = "Tag Array";
    if (fully_assoc) {
        tp.rows = ways;
        tp.bits = _params.tagBits();
        tp.cellType = CellType::CAM;
        tp.searchPorts = std::max(1, _params.readWritePorts);
    } else {
        tp.rows = _params.sets();
        tp.bits = _params.tagBits() * ways;
    }
    tp.readWritePorts = _params.readWritePorts;
    tp.readPorts = _params.readPorts;
    tp.writePorts = _params.writePorts;
    tp.banks = _params.banks;
    tp.targetCycleTime = _params.targetCycleTime;
    tp.flavor = _params.flavor;
    _tag = std::make_unique<ArrayModel>(tp, t);

    // --- Miss-handling arrays (small, HP cells). -------------------------
    const Technology hp(t.nodeNm(), tech::DeviceFlavor::HP,
                        t.temperature());
    if (_params.mshrs > 0) {
        ArrayParams mp;
        mp.name = "MSHR";
        mp.rows = _params.mshrs;
        mp.bits = _params.physicalAddressBits + 16;  // addr + bookkeeping
        mp.cellType = CellType::CAM;
        mp.searchPorts = 1;
        _mshr = std::make_unique<ArrayModel>(mp, hp);
    }
    if (_params.writeBackEntries > 0) {
        ArrayParams wp;
        wp.name = "Write-Back Buffer";
        wp.rows = _params.writeBackEntries;
        wp.bits = _params.physicalAddressBits + block_bits;
        _wbb = std::make_unique<ArrayModel>(wp, hp);
    }
    if (_params.fillBufferEntries > 0) {
        ArrayParams fp;
        fp.name = "Fill Buffer";
        fp.rows = _params.fillBufferEntries;
        fp.bits = _params.physicalAddressBits + block_bits;
        _fill = std::make_unique<ArrayModel>(fp, hp);
    }

    // --- Way comparators: tagBits-wide XOR + AND tree per way. ----------
    const Technology &lt = t;
    const double wmin = minWidth(lt);
    const int tag_bits = _params.tagBits();
    const double cmp_delay = fully_assoc
        ? 0.0  // folded into the CAM search path
        : (std::ceil(std::log2(std::max(2, tag_bits))) + 1.0) * lt.fo4();
    _comparatorEnergy = fully_assoc
        ? 0.0
        : ways * tag_bits * 5.0 * gateC(wmin, lt) * lt.vdd() * lt.vdd();
    const double cmp_leak_sub = fully_assoc ? 0.0
        : ways * tag_bits *
          circuit::subthresholdLeakage(3.0 * wmin, 3.0 * wmin, lt, 0.6);
    const double cmp_leak_gate = fully_assoc ? 0.0
        : ways * tag_bits * circuit::gateLeakage(6.0 * wmin, lt);
    const double cmp_area = fully_assoc ? 0.0
        : ways * tag_bits * 1.5 * lt.logicGateArea();

    // --- Timing. ----------------------------------------------------------
    const double tag_path = fully_assoc
        ? _tag->accessDelay()
        : _tag->accessDelay() + cmp_delay;
    if (_params.sequentialAccess)
        _hitDelay = tag_path + _data->accessDelay();
    else
        _hitDelay = std::max(tag_path, _data->accessDelay()) + lt.fo4();
    _cycleTime = std::max(_data->cycleTime(), _tag->cycleTime());

    // --- Energies. ----------------------------------------------------------
    const double tag_read_e = fully_assoc
        ? _tag->searchEnergy()
        : _tag->readEnergy() + _comparatorEnergy;
    // A parallel read activates every way's stripe (decode and H-tree
    // are shared, hence the 0.6 weighting); sequential/way-selected
    // access reads only the hit way.
    const double way_factor = (_params.sequentialAccess || fully_assoc)
        ? 1.0
        : 1.0 + 0.6 * (ways - 1);
    const double data_read_e = _data->readEnergy() * way_factor;
    const double data_write_e = _data->writeEnergy();

    _readEnergy = tag_read_e + data_read_e;
    _writeEnergy = tag_read_e + data_write_e;
    // A miss pays the lookup (including the parallel data read when
    // tag and data are probed together), the MSHR allocation, the fill
    // buffering, and the line fill itself.
    const double lookup_e = _params.sequentialAccess
        ? tag_read_e
        : tag_read_e + data_read_e;
    _missEnergy = lookup_e +
                  (_mshr ? _mshr->searchEnergy() + _mshr->writeEnergy()
                         : 0.0) +
                  (_fill ? _fill->writeEnergy() : 0.0) +
                  _data->writeEnergy();  // line fill

    // --- Totals. ------------------------------------------------------------
    _area = _data->area() + _tag->area() + cmp_area +
            (_mshr ? _mshr->area() : 0.0) + (_wbb ? _wbb->area() : 0.0) +
            (_fill ? _fill->area() : 0.0);
    _subLeak = _data->subthresholdLeakage() + _tag->subthresholdLeakage() +
               cmp_leak_sub +
               (_mshr ? _mshr->subthresholdLeakage() : 0.0) +
               (_wbb ? _wbb->subthresholdLeakage() : 0.0) +
               (_fill ? _fill->subthresholdLeakage() : 0.0);
    _gateLeak = _data->gateLeakage() + _tag->gateLeakage() +
                cmp_leak_gate + (_mshr ? _mshr->gateLeakage() : 0.0) +
                (_wbb ? _wbb->gateLeakage() : 0.0) +
                (_fill ? _fill->gateLeakage() : 0.0);
}

Report
CacheModel::makeReport(double frequency, const CacheRates &tdp,
                       const CacheRates &runtime) const
{
    auto dynamic = [this](const CacheRates &r) {
        return r.readHits * _readEnergy + r.writeHits * _writeEnergy +
               r.misses() * _missEnergy;
    };

    Report rep;
    rep.name = _params.name;
    rep.area = area();
    rep.criticalPath = _hitDelay;
    rep.peakDynamic = dynamic(tdp) * frequency +
                      _data->result().refreshPower;
    rep.runtimeDynamic = dynamic(runtime) * frequency +
                         _data->result().refreshPower;
    rep.subthresholdLeakage = _subLeak;
    rep.gateLeakage = _gateLeak;

    // Children carry area/leakage breakdowns (dynamic kept at the top
    // since energies mix tag+data per event).
    auto child = [](const ArrayModel &m, const char *cname) {
        Report c;
        c.name = cname;
        c.area = m.area();
        c.subthresholdLeakage = m.subthresholdLeakage();
        c.gateLeakage = m.gateLeakage();
        c.criticalPath = m.accessDelay();
        return c;
    };
    rep.children.push_back(child(*_data, "Data Array"));
    rep.children.push_back(child(*_tag, "Tag Array"));
    if (_mshr)
        rep.children.push_back(child(*_mshr, "MSHR"));
    if (_wbb)
        rep.children.push_back(child(*_wbb, "Write-Back Buffer"));
    if (_fill)
        rep.children.push_back(child(*_fill, "Fill Buffer"));
    return rep;
}

} // namespace array
} // namespace mcpat
