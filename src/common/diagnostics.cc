/**
 * @file
 * Diagnostic formatting and serialization.
 */

#include "common/diagnostics.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>

namespace mcpat {

const char *
severityName(Severity s)
{
    return s == Severity::Error ? "error" : "warning";
}

std::string
Diagnostic::format() const
{
    std::string out = severityName(severity);
    out += ": ";
    if (!component.empty())
        out += "component '" + component + "'";
    if (!key.empty())
        out += std::string(component.empty() ? "" : ", ") + "key '" +
               key + "'";
    if (line > 0)
        out += " (line " + std::to_string(line) + ")";
    if (!component.empty() || !key.empty() || line > 0)
        out += ": ";
    out += message;
    return out;
}

bool
DiagnosticList::hasErrors() const
{
    return errorCount() > 0;
}

bool
DiagnosticList::hasWarnings() const
{
    return std::any_of(_items.begin(), _items.end(), [](const auto &d) {
        return d.severity == Severity::Warning;
    });
}

std::size_t
DiagnosticList::errorCount() const
{
    return static_cast<std::size_t>(
        std::count_if(_items.begin(), _items.end(), [](const auto &d) {
            return d.severity == Severity::Error;
        }));
}

void
DiagnosticList::print(std::ostream &os) const
{
    for (const auto &d : _items)
        os << "mcpat: " << d.format() << "\n";
}

void
DiagnosticList::throwIfErrors(const std::string &subject) const
{
    if (hasErrors())
        throw ValidationError(subject, *this);
}

namespace {

/** Exception message: subject + every error diagnostic, one per line. */
std::string
summarize(const std::string &subject, const DiagnosticList &diags)
{
    std::ostringstream os;
    const std::size_t n = diags.errorCount();
    os << subject << ": " << n << " validation error"
       << (n == 1 ? "" : "s");
    for (const auto &d : diags)
        if (d.severity == Severity::Error)
            os << "\n  " << d.format();
    return os.str();
}

} // namespace

ValidationError::ValidationError(const std::string &subject,
                                 DiagnosticList diags)
    : ConfigError(summarize(subject, diags)), _diags(std::move(diags))
{}

void
appendNumber(std::string &out, double v, int precision)
{
    if (precision < 0)
        precision = 6;
    // %g prints at most `precision` digits plus a sign, a point and
    // either the "0.000" of a small fixed-form value or an exponent,
    // so the stack buffer fits every precision up to 48; a stream may
    // carry a wider one, which takes the heap path.
    char buf[64];
    auto [end, ec] = std::to_chars(buf, buf + sizeof buf, v,
                                   std::chars_format::general, precision);
    if (ec == std::errc()) {
        out.append(buf, end);
        return;
    }
    std::string wide(static_cast<std::size_t>(precision) + 16, '\0');
    end = std::to_chars(wide.data(), wide.data() + wide.size(), v,
                        std::chars_format::general, precision)
              .ptr;
    out.append(wide.data(), end);
}

namespace {

bool
needsJsonEscape(unsigned char c)
{
    return c < 0x20 || c == '"' || c == '\\';
}

/**
 * Index of the first byte at or after @p i that needs a JSON escape
 * (s.size() when none does).  Scans eight bytes per step: a word's
 * high bits flag every byte below 0x20 and every byte equal to `"` or
 * `\` (the classic has-less / has-zero-byte tests, which can flag a
 * byte above a true hit but never miss one), and the exact test then
 * walks the flagged word byte by byte.
 */
std::size_t
nextJsonEscape(std::string_view s, std::size_t i)
{
    constexpr std::uint64_t kOnes = 0x0101010101010101ull;
    constexpr std::uint64_t kHighs = 0x8080808080808080ull;
    for (; i + 8 <= s.size(); i += 8) {
        std::uint64_t w;
        std::memcpy(&w, s.data() + i, sizeof w);
        const std::uint64_t quote = w ^ (kOnes * '"');
        const std::uint64_t slash = w ^ (kOnes * '\\');
        if (((w - kOnes * 0x20) | (quote - kOnes) | (slash - kOnes)) & ~w &
            kHighs)
            break;
    }
    while (i < s.size() && !needsJsonEscape(s[i]))
        ++i;
    return i;
}

} // namespace

void
appendJsonEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    std::size_t run = 0;
    for (std::size_t i = nextJsonEscape(s, 0); i < s.size();
         i = nextJsonEscape(s, run)) {
        out.append(s.data() + run, i - run);
        run = i + 1;
        const auto c = static_cast<unsigned char>(s[i]);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default: {
            const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                              kHex[c & 0xf]};
            out.append(u, sizeof u);
          }
        }
    }
    out.append(s.data() + run, s.size() - run);
}

bool
appendJsonNumber(std::string &out, double v, int precision)
{
    if (!std::isfinite(v)) {
        out += "null";
        return false;
    }
    appendNumber(out, v, precision);
    return true;
}

std::string
jsonEscapeString(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 8);
    appendJsonEscaped(out, s);
    return out;
}

std::string
jsonRoundTrip(double v)
{
    std::string out;
    appendJsonNumber(out, v, kRoundTripPrecision);
    return out;
}

bool
writeJsonNumber(std::ostream &os, double v)
{
    std::string out;
    const bool finite =
        appendJsonNumber(out, v, static_cast<int>(os.precision()));
    os << out;
    return finite;
}

void
appendCsvField(std::string &out, std::string_view s)
{
    const bool quote = std::any_of(s.begin(), s.end(), [](char c) {
        return c == ',' || c == '"' || c == '\n' || c == '\r';
    });
    if (!quote) {
        out += s;
        return;
    }
    out += '"';
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
}

std::string
csvEscapeField(std::string_view s)
{
    std::string out;
    appendCsvField(out, s);
    return out;
}

namespace {

/** One diagnostic as a single-line JSON object. */
void
appendDiagnosticObject(std::string &out, const Diagnostic &d)
{
    out += "{\"severity\": \"";
    out += severityName(d.severity);
    out += "\", \"component\": \"";
    appendJsonEscaped(out, d.component);
    out += "\", \"key\": \"";
    appendJsonEscaped(out, d.key);
    out += "\", \"line\": ";
    out += std::to_string(d.line);
    out += ", \"message\": \"";
    appendJsonEscaped(out, d.message);
    out += "\"}";
}

} // namespace

void
writeDiagnosticsJson(std::ostream &os, const DiagnosticList &diags,
                     int indent)
{
    if (diags.empty()) {
        os << "[]";
        return;
    }
    const std::string pad(indent, ' ');
    std::string out = "[\n";
    const auto &items = diags.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
        out += pad;
        out += "  ";
        appendDiagnosticObject(out, items[i]);
        out += i + 1 < items.size() ? ",\n" : "\n";
    }
    out += pad;
    out += "]";
    os << out;
}

std::string
diagnosticsJsonLine(const DiagnosticList &diags)
{
    std::string out = "[";
    const auto &items = diags.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
        if (i)
            out += ", ";
        appendDiagnosticObject(out, items[i]);
    }
    out += "]";
    return out;
}

void
writeDiagnosticsCsv(std::ostream &os, const DiagnosticList &diags)
{
    os << "severity,component,key,line,message\n";
    for (const auto &d : diags) {
        os << severityName(d.severity) << ','
           << csvEscapeField(d.component) << ',' << csvEscapeField(d.key)
           << ',' << d.line << ',' << csvEscapeField(d.message) << '\n';
    }
}

} // namespace mcpat
