/**
 * @file
 * Subarray ("mat") model: the cell grid with its wordlines, bitlines,
 * sense amplifiers, precharge, and column mux, plus its row decoder.
 *
 * An array (array_model.hh) instantiates ndwl x ndbl of these per bank.
 */

#ifndef MCPAT_ARRAY_MAT_HH
#define MCPAT_ARRAY_MAT_HH

#include "array/array_params.hh"
#include "array/decoder.hh"

namespace mcpat {
namespace array {

/**
 * One subarray of rows x cols storage cells with @c ports identical
 * access ports (one of which is exercised per access).
 */
class Subarray
{
  public:
    Subarray(int rows, int cols, int ports, CellType cell,
             const Technology &t);

    int rows() const { return _rows; }
    int cols() const { return _cols; }

    // --- Geometry (m). -------------------------------------------------
    double cellWidth() const { return _cellW; }
    double cellHeight() const { return _cellH; }
    /** Full layout width including the decoder stack. */
    double width() const { return _width; }
    /** Full layout height including sense amps / precharge. */
    double height() const { return _height; }
    double area() const { return _width * _height; }

    // --- Timing (s). ----------------------------------------------------
    double decodeDelay() const { return _decoder.delay(); }
    double wordlineDelay() const { return _wordlineDelay; }
    double bitlineDelay() const { return _bitlineDelay; }
    double senseDelay() const { return _senseDelay; }
    double prechargeDelay() const { return _prechargeDelay; }

    /** Address to sensed-data delay, s. */
    double accessDelay() const;

    /** Minimum cycle time of the subarray, s. */
    double cycleTime() const;

    // --- Energy per access of one port (J). -----------------------------
    /** Read with @p active_cols columns actually sensed. */
    double readEnergy(int active_cols) const;
    /** Write to @p active_cols columns. */
    double writeEnergy(int active_cols) const;

    // --- Leakage (W), whole subarray including all ports/periphery. ----
    double subthresholdLeakage() const { return _subLeak; }
    double gateLeakage() const { return _gateLeak; }

    // --- Electricals exposed for CAM search modeling. -------------------
    double wordlineCap() const { return _wordlineCap; }
    double bitlineCap() const { return _bitlineCap; }
    const Technology &tech() const { return _tech; }

  private:
    const Technology &_tech;
    int _rows;
    int _cols;
    int _ports;
    CellType _cell;

    double _cellW = 0.0;
    double _cellH = 0.0;
    double _width = 0.0;
    double _height = 0.0;

    double _wordlineCap = 0.0;
    double _wordlineDelay = 0.0;
    double _bitlineCap = 0.0;
    double _bitlineDelay = 0.0;
    double _senseDelay = 0.0;
    double _prechargeDelay = 0.0;

    double _decodeEnergy = 0.0;
    double _wordlineEnergy = 0.0;
    double _bitlineReadEnergyPerCol = 0.0;
    double _bitlineWriteEnergyPerCol = 0.0;
    double _senseEnergyPerCol = 0.0;

    double _subLeak = 0.0;
    double _gateLeak = 0.0;

    Decoder _decoder;

    friend class CamSearch;
};

} // namespace array
} // namespace mcpat

#endif // MCPAT_ARRAY_MAT_HH
