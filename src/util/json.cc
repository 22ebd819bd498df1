#include "util/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <stdexcept>

namespace dream {
namespace json {

namespace {

/** Deeper nesting is rejected instead of overflowing the stack. */
constexpr int kMaxDepth = 256;

/** "<context>:<line>:<col>" of byte @p offset, both 1-based. */
std::string
locate(const std::string& text, const std::string& context,
       size_t offset)
{
    size_t line = 1, line_start = 0;
    for (size_t i = 0; i < offset && i < text.size(); ++i) {
        if (text[i] == '\n') {
            ++line;
            line_start = i + 1;
        }
    }
    return context + ':' + std::to_string(line) + ':' +
           std::to_string(offset - line_start + 1);
}

class Parser {
public:
    Parser(const std::string& text, const std::string& context)
        : text_(text), context_(context)
    {}

    Value
    parse()
    {
        Value v = parseValue(0);
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing content after the top-level value");
        return v;
    }

private:
    [[noreturn]] void
    fail(const std::string& what) const
    {
        throw std::runtime_error(locate(text_, context_, pos_) +
                                 ": JSON error: " + what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    /** The next non-space byte, not consumed. */
    char
    next()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    /** Consume @p word if the input continues with it. */
    bool
    consume(const char* word)
    {
        const size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) != 0)
            return false;
        pos_ += n;
        return true;
    }

    size_t
    digits()
    {
        const size_t start = pos_;
        while (pos_ < text_.size() && text_[pos_] >= '0' &&
               text_[pos_] <= '9')
            ++pos_;
        return pos_ - start;
    }

    Value
    parseValue(int depth)
    {
        if (depth > kMaxDepth)
            fail("nesting deeper than " + std::to_string(kMaxDepth) +
                 " levels");
        Value v;
        const char c = next();
        v.begin = pos_;
        if (c == '{') {
            parseObject(v, depth);
        } else if (c == '[') {
            parseArray(v, depth);
        } else if (c == '"') {
            v.kind = Value::Kind::String;
            v.text = parseString();
        } else if (consume("true") || consume("false")) {
            v.kind = Value::Kind::Bool;
        } else if (!consume("null")) {
            parseNumber(v);
        }
        v.end = pos_;
        return v;
    }

    void
    parseNumber(Value& v)
    {
        v.kind = Value::Kind::Number;
        const size_t start = pos_;
        consume("-");
        if (!consume("nan") && !consume("inf")) {
            if (!consume("0") && digits() == 0)
                fail("expected a value");
            if (consume(".") && digits() == 0)
                fail("invalid number (no fraction digits)");
            if (consume("e") || consume("E")) {
                if (!consume("+"))
                    consume("-");
                if (digits() == 0)
                    fail("invalid number (no exponent digits)");
            }
        }
        v.text = text_.substr(start, pos_ - start);
    }

    std::string
    parseString()
    {
        ++pos_; // the opening quote
        std::string out;
        for (;;) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_];
            if (static_cast<unsigned char>(c) < 0x20)
                fail("control character in string");
            ++pos_;
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            switch (pos_ < text_.size() ? text_[pos_] : '\0') {
              case '"':  out += '"';  break;
              case '\\': out += '\\'; break;
              case '/':  out += '/';  break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              default:
                fail("unsupported escape sequence");
            }
            ++pos_;
        }
    }

    /** After a container element: true at the closing @p close. */
    bool
    endOfElement(char close)
    {
        const char c = next();
        if (c == close || c == ',') {
            ++pos_;
            return c == close;
        }
        fail(std::string("expected ',' or '") + close + "'");
    }

    void
    parseArray(Value& v, int depth)
    {
        v.kind = Value::Kind::Array;
        ++pos_;
        if (next() == ']') {
            ++pos_;
            return;
        }
        do {
            v.items.push_back(parseValue(depth + 1));
        } while (!endOfElement(']'));
    }

    void
    parseObject(Value& v, int depth)
    {
        v.kind = Value::Kind::Object;
        ++pos_;
        if (next() == '}') {
            ++pos_;
            return;
        }
        do {
            if (next() != '"')
                fail("expected a string key");
            const size_t key_at = pos_;
            std::string key = parseString();
            if (v.find(key)) {
                pos_ = key_at;
                fail("duplicate key \"" + key + "\"");
            }
            if (next() != ':')
                fail("expected ':'");
            ++pos_;
            v.members.emplace_back(std::move(key), parseValue(depth + 1));
        } while (!endOfElement('}'));
    }

    const std::string& text_;
    const std::string& context_;
    size_t pos_ = 0;
};

std::string
slurp(std::istream& in)
{
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

} // anonymous namespace

const Value*
Value::find(const std::string& key) const
{
    for (const auto& kv : members) {
        if (kv.first == key)
            return &kv.second;
    }
    return nullptr;
}

double
Value::number() const
{
    return std::strtod(text.c_str(), nullptr);
}

Document::Document(std::string text, std::string context)
    : text_(std::move(text)), context_(std::move(context))
{
    root_ = Parser(text_, context_).parse();
}

Document::Document(std::istream& in, std::string context)
    : Document(slurp(in), std::move(context))
{}

void
Document::fail(const Value& at, const std::string& what) const
{
    throw std::runtime_error(locate(text_, context_, at.begin) + ": " +
                             what);
}

const Value&
Document::member(const Value& obj, const std::string& key,
                 Value::Kind kind) const
{
    static const char* const kKindNames[] = {
        "null", "a boolean", "a number", "a string", "an array",
        "an object"};
    const Value* v = obj.find(key);
    if (!v)
        fail(obj, "missing \"" + key + "\"");
    if (v->kind != kind)
        fail(*v, "\"" + key + "\" must be " + kKindNames[int(kind)]);
    return *v;
}

std::string
quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b";  break;
          case '\f': out += "\\f";  break;
          case '\n': out += "\\n";  break;
          case '\r': out += "\\r";  break;
          case '\t': out += "\\t";  break;
          default:   out += c;      break;
        }
    }
    out += '"';
    return out;
}

std::string
number(double v)
{
    return std::isfinite(v) ? preciseDouble(v) : "null";
}

std::string
preciseDouble(double v)
{
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            return buf;
    }
    return buf; // non-finite: "nan"/"-nan" (inf round-trips above)
}

} // namespace json
} // namespace dream
