/**
 * @file
 * Miscellaneous chip I/O: pad ring and system-interface links (PCIe /
 * coherence links / JTAG lumped together), modeled with per-pin
 * empirical energies as the paper does for chip peripherals.
 */

#ifndef MCPAT_UNCORE_CHIP_IO_HH
#define MCPAT_UNCORE_CHIP_IO_HH

#include "common/field_table.hh"
#include "common/report.hh"
#include "tech/technology.hh"

namespace mcpat {
namespace uncore {

using tech::Technology;

/** Parameters of the lumped chip I/O subsystem. */
struct ChipIoParams
{
    std::string name = "Chip I/O";
    int signalPins = 200;
    double ioVoltage = 1.5;       ///< signaling supply, V
    double pinCap = 3.0 * pF;     ///< pad + package + trace load
    double toggleRate = 0.15;     ///< events per bus clock per pin
    double busClock = 400.0 * MHz;
    double staticPower = 0.5;     ///< bias/termination, W

    auto operator<=>(const ChipIoParams &) const = default;
};

/** ChipIoParams' XML rows (common/field_table.hh). */
inline constexpr auto kChipIoFields = [](auto &&visit, auto &...io) {
    using namespace fields;
    visit(Field{"pins", Int{1, 100000}}, io.signalPins...);
    visit(Field{"io_voltage", Real{0.1, 5.0}}, io.ioVoltage...);
    visit(Field{"pin_cap_pf", Real{0.01, 100.0, pF}}, io.pinCap...);
    visit(Field{"toggle_rate", Real{0.0, 1.0}}, io.toggleRate...);
    visit(Field{"bus_clock_mhz", kClockMhz}, io.busClock...);
    visit(Field{"static_power", Real{0.0, 1000.0}}, io.staticPower...);
};

/**
 * Lumped chip I/O power/area.
 */
class ChipIo
{
  public:
    ChipIo(ChipIoParams params, const Technology &t);

    double area() const { return _area; }

    Report makeReport(double tdp_activity_scale,
                      double rt_activity_scale) const;

  private:
    ChipIoParams _params;
    double _area = 0.0;
    double _dynPerScale = 0.0;  ///< W at activity scale 1
};

} // namespace uncore
} // namespace mcpat

#endif // MCPAT_UNCORE_CHIP_IO_HH
