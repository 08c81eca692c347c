/**
 * @file
 * Field tables: every XML-loaded parameter described once.
 *
 * Each params struct the XML loader fills declares one table next to
 * it: a generic lambda that hands a visitor one row per field, with
 * that member of each object it was given:
 *
 *   inline constexpr auto kDirectoryFields = [](auto &&visit, auto &...d) {
 *       visit(Field{"sharers", Int{1, 4096}}, d.sharers...);
 *   };
 *
 * A row gives the XML key, the rule (an integer or real range, a flag,
 * or a closed list of enum spellings), a real's unit scale and whether
 * the key is required.  The XML loader walks a table over the object
 * it fills, SystemParams::check() over a config beside the struct's
 * defaults, and the tests to perturb every field and write configs
 * back to XML.  Adding a parameter means adding its row.
 */

#ifndef MCPAT_COMMON_FIELD_TABLE_HH
#define MCPAT_COMMON_FIELD_TABLE_HH

#include <cstddef>
#include <span>
#include <string>
#include <string_view>

#include "common/units.hh"

namespace mcpat {
namespace fields {

/** An integer in [lo, hi]. */
struct Int { long long lo, hi; };

/** A real in [lo, hi] in the XML's unit; the member holds it times
 *  @c scale (MHz, KiB, mm or pF into the struct's SI unit). */
struct Real { double lo, hi, scale = 1.0; };

/** A boolean: 1/0, true/false or yes/no. */
struct Flag {};

/** One accepted XML spelling of an enum value. */
template <class E>
struct Spelling { const char *name; E value; };

/** An enum spelled from a closed list. */
template <class E>
struct OneOf { std::span<const Spelling<E>> spellings; };

template <class E, std::size_t N>
OneOf(const Spelling<E> (&)[N]) -> OneOf<E>;

/** One row: the XML key, its rule, and whether the key must appear. */
template <class Rule>
struct Field
{
    const char *key;
    Rule rule;
    bool required = false;
};

inline constexpr bool kRequired = true;

/** Generic bound on structure sizes (entries, registers). */
inline constexpr Int kCount{1, 1 << 20};

/** A clock rate, in MHz. */
inline constexpr Real kClockMhz{1.0, 100000.0, MHz};

/** The one out-of-range message, for the loader and check() alike. */
template <class Rule>
std::string
rangeMessage(std::string_view value, const Rule &r)
{
    return "value " + std::string(value) + " out of range [" +
           std::to_string(r.lo) + ", " + std::to_string(r.hi) + "]";
}

/** The one bad-spelling message, naming every accepted spelling. */
template <class E>
std::string
spellingMessage(std::string_view value, const OneOf<E> &r)
{
    std::string allowed;
    for (const Spelling<E> &s : r.spellings)
        allowed += (allowed.empty() ? "" : ", ") + std::string(s.name);
    return "invalid value '" + std::string(value) + "' (allowed: " +
           allowed + ")";
}

} // namespace fields
} // namespace mcpat

#endif // MCPAT_COMMON_FIELD_TABLE_HH
