/**
 * @file
 * Minimal JSON document parser (RFC 8259) producing a small DOM.
 *
 * The evaluation server accepts newline-delimited JSON requests; the
 * load-test client and the tests read the server's JSON responses and
 * check every JSON artifact the writers emit.  Pulling in an external
 * dependency for a six-kind value type is not worth it.  This parser is
 * strict — it rejects what hand-rolled writers most often get wrong
 * (trailing commas, bare NaN or Infinity, unescaped control
 * characters, truncated documents, trailing garbage) — and keeps object
 * keys in source order so round-trip tests stay deterministic.
 */

#ifndef MCPAT_COMMON_JSON_VALUE_HH
#define MCPAT_COMMON_JSON_VALUE_HH

#include <string>
#include <utility>
#include <vector>

namespace mcpat {
namespace common {

/** One parsed JSON value; a tree for arrays and objects. */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<JsonValue> array;
    /** Key/value pairs in source order (later duplicates shadow). */
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isNull() const { return kind == Kind::Null; }
    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isBool() const { return kind == Kind::Bool; }

    /**
     * Look up @p key in an object; nullptr when absent or when this
     * value is not an object.  The last occurrence wins, matching what
     * most real parsers do with duplicate keys.
     */
    const JsonValue *find(const std::string &key) const;

    /** The member's string value, or @p dflt when absent/not a string. */
    std::string getString(const std::string &key,
                          const std::string &dflt = std::string()) const;

    /** The member's bool value, or @p dflt when absent/not a bool. */
    bool getBool(const std::string &key, bool dflt = false) const;

    /** The member's numeric value, or @p dflt when absent/not a number. */
    double getNumber(const std::string &key, double dflt = 0.0) const;
};

/**
 * Parse one complete JSON document (with optional surrounding
 * whitespace).  Returns false — with a one-line description and byte
 * offset in @p error when non-null — on any syntax violation,
 * including trailing garbage after the value.
 */
bool jsonParse(const std::string &text, JsonValue &out,
               std::string *error = nullptr);

} // namespace common
} // namespace mcpat

#endif // MCPAT_COMMON_JSON_VALUE_HH
