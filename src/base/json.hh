/**
 * @file
 * Minimal recursive-descent JSON parser and string escaper.
 *
 * The simulator hand-serialises its JSON documents (Chrome traces,
 * the metrics registry, attribution reports, bench outputs); tools
 * such as trace_diff and bench_index, and the tests, read them back.
 * The parser is deliberately small: numbers become double, object
 * member order is preserved, duplicate keys are not rejected, and
 * \uXXXX escapes decode the BMP code point as UTF-8. As RFC 8259
 * requires, control characters (U+0000-U+001F) inside strings must
 * be escaped. parse() throws JsonError with a byte offset on
 * malformed input.
 */

#ifndef MOBIUS_BASE_JSON_HH
#define MOBIUS_BASE_JSON_HH

#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace mobius::json
{

/** Error thrown on malformed JSON; carries a byte offset. */
class JsonError : public std::runtime_error
{
  public:
    explicit JsonError(const std::string &msg)
        : std::runtime_error(msg)
    {}
};

/** One parsed JSON value (a tagged union over the six kinds). */
struct JsonValue
{
    enum class Kind { Null, Bool, Number, String, Array, Object };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isNull() const { return kind == Kind::Null; }
    bool isBool() const { return kind == Kind::Bool; }
    bool isNumber() const { return kind == Kind::Number; }
    bool isString() const { return kind == Kind::String; }
    bool isArray() const { return kind == Kind::Array; }
    bool isObject() const { return kind == Kind::Object; }

    /** @return whether this object has a member named @p key. */
    bool has(const std::string &key) const;

    /** @return member @p key; throws when absent or not an object. */
    const JsonValue &at(const std::string &key) const;

    /** @return member @p key, or nullptr when absent / non-object. */
    const JsonValue *find(const std::string &key) const;

    /** @return array element @p i; throws when out of range. */
    const JsonValue &operator[](std::size_t i) const;

    /** @return member @p key as a number, or @p fallback. */
    double numberOr(const std::string &key, double fallback) const;

    /** @return member @p key as a string, or @p fallback. */
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;
};

/** Parse @p text; throws JsonError on malformed input. */
JsonValue parse(const std::string &text);

/**
 * Escape @p s for embedding inside a JSON string literal: `"` and
 * `\` get a backslash, newline and tab become `\n` and `\t`, and
 * any other byte below 0x20 becomes `\u00XX`. The one JSON string
 * escaper every exporter uses.
 */
std::string escape(std::string_view s);

} // namespace mobius::json

#endif // MOBIUS_BASE_JSON_HH
