/**
 * @file
 * Standalone coherence-directory model.
 *
 * Beyond the in-tag presence bits of SharedCacheParams, larger systems
 * keep a dedicated directory: either duplicate tags (a CAM searched by
 * block address, Niagara-style) or a sparse full-map directory (an
 * SRAM indexed by block address with one presence vector per tracked
 * line).  Both reduce to the array model.
 */

#ifndef MCPAT_UNCORE_DIRECTORY_HH
#define MCPAT_UNCORE_DIRECTORY_HH

#include <memory>

#include "array/array_model.hh"
#include "common/field_table.hh"

namespace mcpat {
namespace uncore {

using tech::Technology;

/** Directory organization style. */
enum class DirectoryStyle
{
    DuplicateTags,  ///< CAM of all cached tags, searched per request
    SparseFullMap   ///< SRAM of presence vectors, indexed per request
};

/** Directory parameters. */
struct DirectoryParams
{
    std::string name = "Coherence Directory";
    DirectoryStyle style = DirectoryStyle::SparseFullMap;

    /** Cache lines tracked (sparse) or mirrored tags (duplicate). */
    int trackedLines = 64 * 1024;

    int sharers = 16;             ///< presence-vector width
    int physicalAddressBits = 42;
    int blockBytes = 64;
    int banks = 4;
    double clockRate = 1.0e9;
    tech::DeviceFlavor flavor = tech::DeviceFlavor::HP;

    auto operator<=>(const DirectoryParams &) const = default;
};

inline constexpr fields::Spelling<DirectoryStyle> kDirectoryStyleSpellings[] =
    {{"sparse", DirectoryStyle::SparseFullMap},
     {"duplicate_tags", DirectoryStyle::DuplicateTags}};

/** DirectoryParams' XML rows (common/field_table.hh). */
inline constexpr auto kDirectoryFields = [](auto &&visit, auto &...d) {
    using namespace fields;
    visit(Field{"style", OneOf{kDirectoryStyleSpellings}}, d.style...);
    visit(Field{"tracked_lines", Int{1, 1 << 28}}, d.trackedLines...);
    visit(Field{"sharers", Int{1, 4096}}, d.sharers...);
    visit(Field{"banks", Int{1, 1024}}, d.banks...);
    visit(Field{"clock_rate_mhz", kClockMhz}, d.clockRate...);
};

/** Per-cycle directory traffic. */
struct DirectoryRates
{
    double lookups = 0.0;   ///< coherence requests per cycle
    double updates = 0.0;   ///< sharer-vector writes per cycle
};

/**
 * One directory instance.
 */
class Directory
{
  public:
    Directory(DirectoryParams params, const Technology &t);

    const DirectoryParams &params() const { return _params; }

    double area() const;
    double lookupEnergy() const;
    double updateEnergy() const;
    double accessDelay() const;

    Report makeReport(const DirectoryRates &tdp,
                      const DirectoryRates &rt) const;

  private:
    DirectoryParams _params;
    std::unique_ptr<array::ArrayModel> _array;
};

} // namespace uncore
} // namespace mcpat

#endif // MCPAT_UNCORE_DIRECTORY_HH
