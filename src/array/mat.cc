/**
 * @file
 * Subarray implementation.
 */

#include "array/mat.hh"

#include <algorithm>
#include <cmath>

#include "circuit/elmore.hh"

namespace mcpat {
namespace array {

using namespace circuit;

namespace {

/** Relative bitline swing sensed by the amplifier. */
constexpr double senseSwing = 0.1;  // V

/** Extra cell pitch per port beyond the first (extra WL + BL pair). */
constexpr double portPitchGrowth = 0.3;

/** Access-device width inside a storage cell. */
double
cellAccessWidth(const Technology &t)
{
    return 1.5 * t.feature();
}

struct CellDims { double w, h, leakW; };

CellDims
cellDims(CellType cell, int ports, const Technology &t)
{
    double base_area;
    double leak_w;  // total leaking NMOS width per cell
    switch (cell) {
      case CellType::SRAM:
        base_area = t.sramCellArea();
        leak_w = 2.0 * cellAccessWidth(t);
        break;
      case CellType::CAM:
        base_area = t.camCellArea();
        leak_w = 3.5 * cellAccessWidth(t);
        break;
      case CellType::EDRAM:
        // 1T1C logic eDRAM: ~2.5x denser than SRAM; only the access
        // device leaks (and it is engineered for low off-current).
        base_area = t.sramCellArea() / 2.5;
        leak_w = 0.05 * cellAccessWidth(t);
        break;
      case CellType::DFF:
      default:
        base_area = t.dffArea();
        leak_w = 8.0 * cellAccessWidth(t);
        break;
    }
    const double aspect = t.node().sramCellAspect;
    const double port_factor = 1.0 + portPitchGrowth * (ports - 1);
    CellDims d;
    d.w = std::sqrt(base_area / aspect) * port_factor;
    d.h = std::sqrt(base_area * aspect) * port_factor;
    d.leakW = leak_w;
    return d;
}

} // namespace

Subarray::Subarray(int rows, int cols, int ports, CellType cell,
                   const Technology &t)
    : _tech(t), _rows(rows), _cols(cols), _ports(ports), _cell(cell),
      _decoder(rows,
               // Wordline load: pass-gate pairs on every column plus the
               // wire across the row of cells.
               cols * 2.0 * gateC(cellAccessWidth(t), t) +
                   t.wire(tech::WireLayer::Local).capPerM *
                   cols * cellDims(cell, ports, t).w,
               rows * cellDims(cell, ports, t).h, t)
{
    panicIf(rows < 1 || cols < 1, "empty subarray");
    panicIf(ports < 1, "subarray without ports");

    const CellDims dims = cellDims(cell, ports, t);
    _cellW = dims.w;
    _cellH = dims.h;

    const auto &wl_wire = t.wire(tech::WireLayer::Local);
    const double vdd = t.vdd();
    const double vdd2 = vdd * vdd;

    // --- Wordline: distributed RC across the columns. -------------------
    const double wl_len = cols * dims.w;
    const double wl_res = wl_wire.resPerM * wl_len;
    _wordlineCap = cols * 2.0 * gateC(cellAccessWidth(t), t) +
                   wl_wire.capPerM * wl_len;
    _wordlineDelay = distributedLineDelay(0.0, wl_res, _wordlineCap, 0.0);
    _wordlineEnergy = _wordlineCap * vdd2;

    // --- Bitline: junction load per row plus wire. -----------------------
    const double bl_len = rows * dims.h;
    const double bl_res = wl_wire.resPerM * bl_len;
    _bitlineCap = rows * drainC(cellAccessWidth(t), t) +
                  wl_wire.capPerM * bl_len;
    // Cell read current discharges the line through two series devices.
    const double i_cell = 0.5 * t.device().ionN * cellAccessWidth(t);
    const double swing = std::max(senseSwing, 0.08 * vdd);
    if (cell == CellType::EDRAM) {
        // Charge sharing between the cell capacitor and the bitline:
        // slower develop time and a destructive read that must restore
        // the full value (charged as a write by the array model).
        _bitlineDelay = 2.0 * _bitlineCap * swing / i_cell +
                        0.38 * bl_res * _bitlineCap;
        _bitlineReadEnergyPerCol = 0.5 * _bitlineCap * vdd2;
    } else {
        _bitlineDelay = _bitlineCap * swing / i_cell +
                        0.38 * bl_res * _bitlineCap;
        _bitlineReadEnergyPerCol = _bitlineCap * swing * vdd;  // restore
    }
    _bitlineWriteEnergyPerCol = _bitlineCap * vdd2;            // full swing

    // --- Sense amplifier: latch-type, resolves in a few FO4; eDRAM
    //     charge-sharing needs reference cells and a longer resolve.
    _senseDelay = (cell == CellType::EDRAM ? 7.0 : 2.5) * t.fo4();
    const double wmin = minWidth(t);
    _senseEnergyPerCol = 10.0 * gateC(wmin, t) * vdd2;

    // --- Precharge: restore the bitline swing between accesses. ---------
    _prechargeDelay = 0.5 * _bitlineDelay + t.fo4();

    _decodeEnergy = _decoder.energyPerAccess();

    // --- Leakage: cells, per-column periphery, and the decoder stack. ---
    const double ncells = static_cast<double>(rows) * cols;
    const auto &d = t.device();
    _subLeak = ncells * d.ioffN * dims.leakW * t.leakageScale() * vdd +
               cols * circuit::subthresholdLeakage(4.0 * wmin, 4.0 * wmin,
                                                   t, 0.8) +
               _decoder.subthresholdLeakage();
    _gateLeak = ncells * circuit::gateLeakage(2.0 * cellAccessWidth(t), t) +
                cols * circuit::gateLeakage(6.0 * wmin, t) +
                _decoder.gateLeakage();

    // --- Layout. ----------------------------------------------------------
    const double sense_stack_h = 50.0 * t.feature();  // SA+precharge
    const double decoder_w = _decoder.area() / std::max(bl_len, 1.0 * um);
    _width = cols * _cellW + decoder_w;
    _height = rows * _cellH + sense_stack_h;
}

double
Subarray::accessDelay() const
{
    return decodeDelay() + _wordlineDelay + _bitlineDelay + _senseDelay;
}

double
Subarray::cycleTime() const
{
    // The decode of the next access overlaps the precharge of this one.
    return std::max(decodeDelay(),
                    _wordlineDelay + _bitlineDelay + _senseDelay +
                        _prechargeDelay);
}

double
Subarray::readEnergy(int active_cols) const
{
    const int n = std::min(active_cols, _cols);
    return _decodeEnergy + _wordlineEnergy +
           n * (_bitlineReadEnergyPerCol + _senseEnergyPerCol);
}

double
Subarray::writeEnergy(int active_cols) const
{
    const int n = std::min(active_cols, _cols);
    return _decodeEnergy + _wordlineEnergy + n * _bitlineWriteEnergyPerCol;
}

} // namespace array
} // namespace mcpat
