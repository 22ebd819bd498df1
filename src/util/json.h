/**
 * @file
 * The one JSON reader, plus the JSON writing helpers every layer
 * shares. A leaf module: it includes nothing else from src/, so any
 * layer may use it.
 *
 * The reader is strict and has no options:
 * - Grammar: RFC 8259, plus the bare number tokens nan, -nan, inf
 *   and -inf that the `%g` writers emit for non-finite values.
 *   Rejecting those is the schema's job, not the parser's.
 * - Numbers keep their raw token, so 64-bit integers (a suite's
 *   generation seeds) stay exact.
 * - String escapes are \" \\ \/ \b \f \n \r \t. Raw control
 *   characters in strings are errors.
 * - Duplicate object keys, content after the top-level value and
 *   nesting deeper than 256 levels are errors.
 * - Every error reads "<context>:<line>:<col>: <what>". Syntax
 *   errors say "JSON error: ..."; schema errors raised through
 *   Document::fail are located at the offending value.
 */

#ifndef DREAM_UTIL_JSON_H
#define DREAM_UTIL_JSON_H

#include <cstddef>
#include <istream>
#include <string>
#include <utility>
#include <vector>

namespace dream {
namespace json {

/**
 * One parsed value; containers own their children. A boolean's
 * value is not kept (no schema reads one).
 */
struct Value {
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    /** Decoded string, or a number's raw token. */
    std::string text;
    std::vector<Value> items; ///< array elements
    /** Object members in file order; keys are unique. */
    std::vector<std::pair<std::string, Value>> members;
    /** Byte span [begin, end) of the value in the source text. */
    size_t begin = 0;
    size_t end = 0;

    /** Member @p key of an object, or nullptr when absent. */
    const Value* find(const std::string& key) const;
    /** A number's value: strtod of the raw token (nan/inf too). */
    double number() const;
};

/** A parsed document: the value tree plus its source text. */
class Document {
public:
    /**
     * Parse @p text. @p context names the source in every error,
     * usually the file path.
     *
     * @throws std::runtime_error
     * "<context>:<line>:<col>: JSON error: <what>".
     */
    Document(std::string text, std::string context);
    /** Parse all of @p in. */
    Document(std::istream& in, std::string context);

    const Value& root() const { return root_; }

    /** Throw "<context>:<line>:<col>: <what>", located at @p at. */
    [[noreturn]] void fail(const Value& at,
                           const std::string& what) const;

    /**
     * Member @p key of object @p obj, which must be present and of
     * kind @p kind. Fails at @p obj when it is missing, and at the
     * member when it has another kind.
     */
    const Value& member(const Value& obj, const std::string& key,
                        Value::Kind kind) const;

private:
    std::string text_;
    std::string context_;
    Value root_;
};

/**
 * @p s as a JSON string literal: quoted, with " \ and the
 * \b \f \n \r \t controls escaped.
 */
std::string quote(const std::string& s);

/**
 * A double as a JSON value: preciseDouble(v), or null when @p v is
 * not finite (JSON has no NaN or infinity).
 */
std::string number(double v);

/**
 * Shortest decimal rendering of @p v that parses back to exactly
 * the same double (tries %.15g, %.16g, %.17g). Non-finite values
 * render as the strtod-compatible "nan"/"-nan"/"inf"/"-inf".
 */
std::string preciseDouble(double v);

} // namespace json
} // namespace dream

#endif // DREAM_UTIL_JSON_H
