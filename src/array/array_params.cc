/**
 * @file
 * ArrayParams derived quantities and validation.
 */

#include "array/array_params.hh"

#include <cmath>

#include "common/logging.hh"

namespace mcpat {
namespace array {

double
ArrayParams::totalBits() const
{
    if (sizeBytes > 0.0)
        return sizeBytes * 8.0;
    return static_cast<double>(rows) * bits;
}

int
ArrayParams::totalRows() const
{
    if (sizeBytes > 0.0)
        return static_cast<int>(std::ceil(sizeBytes * 8.0 /
                                          blockWidthBits));
    return rows;
}

int
ArrayParams::rowBits() const
{
    if (sizeBytes > 0.0)
        return blockWidthBits;
    return bits;
}

int
ArrayParams::totalPorts() const
{
    return readWritePorts + readPorts + writePorts;
}

void
ArrayParams::validate() const
{
    // Every array construction validates, so a message is built only
    // when its check fails.
    const auto fail = [this](bool cond, const char *what) {
        if (cond)
            throw ConfigError("array '" + name + "': " + what);
    };
    const bool form1 = sizeBytes > 0.0;
    const bool form2 = rows > 0;
    fail(form1 == form2, "specify exactly one of sizeBytes or rows x bits");
    fail(form1 && blockWidthBits <= 0,
         "sizeBytes form requires blockWidthBits");
    fail(form2 && bits <= 0, "rows form requires bits > 0");
    fail(totalPorts() <= 0, "needs at least one port");
    fail(banks <= 0, "banks must be positive");
    fail(searchPorts > 0 && cellType != CellType::CAM,
         "search ports require CAM cells");
    fail(cellType == CellType::CAM && searchPorts <= 0,
         "CAM arrays need at least 1 search port");
    fail(targetCycleTime < 0.0, "negative cycle-time target");
}

} // namespace array
} // namespace mcpat
