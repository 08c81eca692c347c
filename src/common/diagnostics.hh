/**
 * @file
 * Structured configuration diagnostics.
 *
 * Every problem found while loading or cross-checking a configuration
 * is recorded as a Diagnostic carrying the component id, the offending
 * key, the XML source line, and a human-readable message — instead of
 * a context-free exception from deep inside a parser.  Diagnostics are
 * collected (not thrown one at a time), so a single pass reports every
 * problem in a file.
 *
 * Severity semantics:
 *  - Error:   the configuration cannot be trusted to build the model
 *             the user intended (malformed value, out-of-range,
 *             inconsistent cross-field state).  Errors always fail the
 *             load; there is no mode that silently proceeds past them.
 *  - Warning: suspicious but recoverable (unknown key, advisory
 *             cross-field mismatch).  Strict mode escalates warnings
 *             to failures; permissive mode reports them and continues.
 */

#ifndef MCPAT_COMMON_DIAGNOSTICS_HH
#define MCPAT_COMMON_DIAGNOSTICS_HH

#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.hh"

namespace mcpat {

/** How bad one diagnostic is (see file comment for semantics). */
enum class Severity { Warning, Error };

/** "warning" or "error". */
const char *severityName(Severity s);

/** One located problem in a configuration. */
struct Diagnostic
{
    Severity severity = Severity::Error;
    std::string component;  ///< component id (or type when id absent)
    std::string key;        ///< param/stat name; empty for cross-field
    std::string message;
    int line = 0;           ///< 1-based XML source line; 0 = unknown

    /** "error: component 'x', key 'y' (line 3): message". */
    std::string format() const;
};

/** A collected list of diagnostics with severity queries. */
class DiagnosticList
{
  public:
    void
    add(Severity severity, const std::string &component,
        const std::string &key, const std::string &message, int line = 0)
    {
        _items.push_back({severity, component, key, message, line});
    }

    void add(Diagnostic d) { _items.push_back(std::move(d)); }

    /** Append another list's items. */
    void
    merge(const DiagnosticList &other)
    {
        _items.insert(_items.end(), other._items.begin(),
                      other._items.end());
    }

    bool hasErrors() const;
    bool hasWarnings() const;

    /** Count of Error-severity items. */
    std::size_t errorCount() const;

    bool empty() const { return _items.empty(); }
    std::size_t size() const { return _items.size(); }

    const std::vector<Diagnostic> &items() const { return _items; }
    auto begin() const { return _items.begin(); }
    auto end() const { return _items.end(); }

    /** One formatted diagnostic per line, "mcpat: " prefixed. */
    void print(std::ostream &os) const;

    /**
     * Throw a ValidationError summarizing the Error items when any are
     * present; no-op otherwise.  @p subject names what was being
     * validated (file path, component, ...).
     */
    void throwIfErrors(const std::string &subject) const;

  private:
    std::vector<Diagnostic> _items;
};

/**
 * A ConfigError that carries the structured diagnostics it summarizes,
 * so callers (batch mode, tests) can recover per-key context instead
 * of re-parsing what().
 */
class ValidationError : public ConfigError
{
  public:
    ValidationError(const std::string &subject, DiagnosticList diags);

    const DiagnosticList &diagnostics() const { return _diags; }

  private:
    DiagnosticList _diags;
};

// ---------------------------------------------------------------------
// Output rules shared by every JSON and CSV writer in the repository.
// ---------------------------------------------------------------------

/** Significant digits at which every double survives a print/parse
 *  round trip (max_digits10). */
inline constexpr int kRoundTripPrecision =
    std::numeric_limits<double>::max_digits10;

/** A default-constructed stream's precision: replies, summaries and
 *  labels print their numbers at it. */
inline constexpr int kStreamPrecision = 6;

/**
 * The one number rule: append @p v as printf's `%.<precision>g` prints
 * it in the C locale, which is also what `std::ostream << v` prints
 * under default flags at that precision (a negative precision means 6,
 * as it does for a stream).  Non-finite values append `inf`/`nan` like
 * a stream; the JSON and CSV writers test finiteness first and write
 * `null` or an empty cell instead.
 */
void appendNumber(std::string &out, double v, int precision);

/**
 * The one JSON string escaper: append @p s with `"` and `\`
 * backslash-escaped, `\n` and `\t` in their short forms, every other
 * byte below 0x20 as `\u00xx`, and all other bytes unchanged.  It
 * finds the next byte to escape eight bytes at a time and copies each
 * run of bytes that need none with one append.
 */
void appendJsonEscaped(std::string &out, std::string_view s);

/**
 * Append @p v as a JSON number at @p precision (appendNumber), or
 * `null` when it is non-finite, since JSON has no NaN/Infinity
 * literals.  Returns false exactly when it wrote `null`.
 */
bool appendJsonNumber(std::string &out, double v, int precision);

/** appendJsonEscaped into a new string. */
std::string jsonEscapeString(std::string_view s);

/**
 * A double as JSON text that parses back bit-identically
 * (kRoundTripPrecision significant digits; `null` when non-finite).
 */
std::string jsonRoundTrip(double v);

/**
 * Write a double as a JSON number at @p os's current precision
 * (appendJsonNumber; the stream's other format flags do not apply).
 * A non-finite value writes `null`; the result is false exactly then.
 */
bool writeJsonNumber(std::ostream &os, double v);

/**
 * Append one CSV field (RFC 4180): quoted, with `"` doubled, when it
 * contains `,`, `"`, `\n` or `\r`; unchanged otherwise.
 */
void appendCsvField(std::string &out, std::string_view s);

/** appendCsvField into a new string. */
std::string csvEscapeField(std::string_view s);

/**
 * Emit a diagnostics array as JSON, one object per line:
 *   [{"severity": "error", "component": "...", "key": "...",
 *     "line": 3, "message": "..."}, ...]
 */
void writeDiagnosticsJson(std::ostream &os, const DiagnosticList &diags,
                          int indent = 0);

/** The same array on a single line (journal records, server replies). */
std::string diagnosticsJsonLine(const DiagnosticList &diags);

/** Emit diagnostics as CSV rows: severity,component,key,line,message. */
void writeDiagnosticsCsv(std::ostream &os, const DiagnosticList &diags);

} // namespace mcpat

#endif // MCPAT_COMMON_DIAGNOSTICS_HH
