/**
 * @file
 * Diagnostic formatting and serialization.
 */

#include "common/diagnostics.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
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

std::string
jsonEscapeString(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 8);
    for (char c : s) {
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
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
jsonRoundTrip(double v)
{
    if (!std::isfinite(v))
        return "null";
    std::ostringstream os;
    os.precision(std::numeric_limits<double>::max_digits10);
    os << v;
    return os.str();
}

bool
writeJsonNumber(std::ostream &os, double v)
{
    if (std::isfinite(v)) {
        os << v;
        return true;
    }
    os << "null";
    return false;
}

std::string
csvEscapeField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += "\"\"";
        else
            out += c;
    }
    return out + "\"";
}

namespace {

/** One diagnostic as a single-line JSON object. */
void
writeDiagnosticObject(std::ostream &os, const Diagnostic &d)
{
    os << "{\"severity\": \"" << severityName(d.severity)
       << "\", \"component\": \"" << jsonEscapeString(d.component)
       << "\", \"key\": \"" << jsonEscapeString(d.key)
       << "\", \"line\": " << d.line << ", \"message\": \""
       << jsonEscapeString(d.message) << "\"}";
}

} // namespace

void
writeDiagnosticsJson(std::ostream &os, const DiagnosticList &diags,
                     int indent)
{
    const std::string pad(indent, ' ');
    if (diags.empty()) {
        os << "[]";
        return;
    }
    os << "[\n";
    const auto &items = diags.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
        os << pad << "  ";
        writeDiagnosticObject(os, items[i]);
        os << (i + 1 < items.size() ? ",\n" : "\n");
    }
    os << pad << "]";
}

std::string
diagnosticsJsonLine(const DiagnosticList &diags)
{
    std::ostringstream os;
    os << "[";
    const auto &items = diags.items();
    for (std::size_t i = 0; i < items.size(); ++i) {
        os << (i ? ", " : "");
        writeDiagnosticObject(os, items[i]);
    }
    os << "]";
    return os.str();
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
