/**
 * @file
 * Implementation of the minimal JSON writer and reader.
 */

#include "obs/json.hh"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "util/logging.hh"

namespace uatm::obs {

JsonWriter &
JsonWriter::beginObject()
{
    beforeValue();
    out_ += '{';
    stack_.push_back('o');
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    UATM_ASSERT(!stack_.empty() && stack_.back() == 'o',
                "endObject() outside an object");
    UATM_ASSERT(!pendingKey_, "dangling key at endObject()");
    out_ += '}';
    stack_.pop_back();
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beforeValue();
    out_ += '[';
    stack_.push_back('a');
    first_.push_back(true);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    UATM_ASSERT(!stack_.empty() && stack_.back() == 'a',
                "endArray() outside an array");
    out_ += ']';
    stack_.pop_back();
    first_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view k)
{
    UATM_ASSERT(!stack_.empty() && stack_.back() == 'o',
                "key() is only valid inside an object");
    UATM_ASSERT(!pendingKey_, "two keys in a row");
    if (!first_.back())
        out_ += ',';
    first_.back() = false;
    out_ += escape(k);
    out_ += ':';
    pendingKey_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beforeValue();
    out_ += escape(v);
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::rawValue(std::string_view json)
{
    beforeValue();
    out_ += json;
    return *this;
}

const std::string &
JsonWriter::str() const
{
    UATM_ASSERT(stack_.empty(),
                "unbalanced JSON document (missing end calls)");
    return out_;
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out += '"';
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(
                                  static_cast<unsigned char>(c)));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

std::string
JsonWriter::formatNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Exact integers render without a decimal point so counters
    // round-trip textually ("fills": 7, not 7.0).  %.12g is exact
    // only below 1e12, so the larger integers a double still holds
    // exactly (below 2^53, e.g. a 2^40 seed) are printed in full.
    constexpr double kTwoTo53 = 9007199254740992.0;
    char buf[32];
    const double magnitude = std::fabs(v);
    if (magnitude >= 1e12 && magnitude < kTwoTo53 &&
        v == std::floor(v))
        std::snprintf(buf, sizeof(buf), "%.0f", v);
    else
        std::snprintf(buf, sizeof(buf), "%.12g", v);
    return buf;
}

void
JsonWriter::beforeValue()
{
    if (stack_.empty()) {
        UATM_ASSERT(out_.empty(),
                    "only one top-level JSON value is allowed");
        return;
    }
    if (stack_.back() == 'o') {
        UATM_ASSERT(pendingKey_,
                    "value inside an object needs a key() first");
        pendingKey_ = false;
        return;
    }
    if (!first_.back())
        out_ += ',';
    first_.back() = false;
}

bool
JsonValue::asBool() const
{
    UATM_ASSERT(isBool(), "JSON value is not a bool");
    return bool_;
}

double
JsonValue::asNumber() const
{
    UATM_ASSERT(isNumber(), "JSON value is not a number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    UATM_ASSERT(isString(), "JSON value is not a string");
    return string_;
}

const std::string &
JsonValue::literal() const
{
    UATM_ASSERT(isNumber(), "JSON value is not a number");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    UATM_ASSERT(isArray(), "JSON value is not an array");
    return items_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::members() const
{
    UATM_ASSERT(isObject(), "JSON value is not an object");
    return members_;
}

std::size_t
JsonValue::size() const
{
    if (isArray())
        return items_.size();
    if (isObject())
        return members_.size();
    return 0;
}

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (!isObject())
        return nullptr;
    for (const auto &[name, value] : members_) {
        if (name == key)
            return &value;
    }
    return nullptr;
}

const JsonValue &
JsonValue::at(std::string_view key) const
{
    const JsonValue *value = find(key);
    UATM_ASSERT(value, "missing JSON member: ", key);
    return *value;
}

const JsonValue &
JsonValue::at(std::size_t index) const
{
    const auto &all = items();
    UATM_ASSERT(index < all.size(), "JSON array index ", index,
                " out of range (", all.size(), ")");
    return all[index];
}

/**
 * Recursive-descent reader.  Errors unwind via the fail()/ok_
 * flag (no exceptions), reporting the first failure's offset.
 */
class JsonParser
{
  public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    JsonParseResult
    run()
    {
        JsonParseResult result;
        skipWs();
        parseValue(result.value, 0);
        skipWs();
        if (ok_ && pos_ != text_.size())
            fail("trailing characters after the document");
        result.ok = ok_;
        if (!ok_) {
            result.value = JsonValue{};
            result.error = "byte " + std::to_string(errorPos_) +
                           ": " + errorMsg_;
        }
        return result;
    }

  private:
    static constexpr int kMaxDepth = 256;

    std::string_view text_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::size_t errorPos_ = 0;
    std::string errorMsg_;

    void
    fail(const std::string &message)
    {
        if (!ok_)
            return;
        ok_ = false;
        errorPos_ = pos_;
        errorMsg_ = message;
    }

    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skipWs()
    {
        while (!eof()) {
            const char c = peek();
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char expected)
    {
        if (eof() || peek() != expected)
            return false;
        ++pos_;
        return true;
    }

    void
    expect(char expected, const char *what)
    {
        if (!consume(expected))
            fail(std::string("expected ") + what);
    }

    void
    parseValue(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting deeper than 256 levels");
            return;
        }
        if (eof()) {
            fail("unexpected end of input");
            return;
        }
        switch (peek()) {
          case '{':
            parseObject(out, depth);
            return;
          case '[':
            parseArray(out, depth);
            return;
          case '"':
            out.kind_ = JsonValue::Kind::String;
            parseString(out.string_);
            return;
          case 't':
            parseLiteral("true");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = true;
            return;
          case 'f':
            parseLiteral("false");
            out.kind_ = JsonValue::Kind::Bool;
            out.bool_ = false;
            return;
          case 'n':
            parseLiteral("null");
            out.kind_ = JsonValue::Kind::Null;
            return;
          default:
            parseNumber(out);
            return;
        }
    }

    void
    parseLiteral(std::string_view literal)
    {
        if (text_.substr(pos_, literal.size()) != literal) {
            fail("invalid literal");
            return;
        }
        pos_ += literal.size();
    }

    void
    parseObject(JsonValue &out, int depth)
    {
        ++pos_;  // '{'
        out.kind_ = JsonValue::Kind::Object;
        skipWs();
        if (consume('}'))
            return;
        while (ok_) {
            skipWs();
            if (eof() || peek() != '"') {
                fail("expected a string key");
                return;
            }
            std::string key;
            parseString(key);
            skipWs();
            expect(':', "':' after object key");
            skipWs();
            JsonValue value;
            parseValue(value, depth + 1);
            if (!ok_)
                return;
            out.members_.emplace_back(std::move(key),
                                      std::move(value));
            skipWs();
            if (consume('}'))
                return;
            expect(',', "',' or '}' in object");
        }
    }

    void
    parseArray(JsonValue &out, int depth)
    {
        ++pos_;  // '['
        out.kind_ = JsonValue::Kind::Array;
        skipWs();
        if (consume(']'))
            return;
        while (ok_) {
            skipWs();
            JsonValue value;
            parseValue(value, depth + 1);
            if (!ok_)
                return;
            out.items_.push_back(std::move(value));
            skipWs();
            if (consume(']'))
                return;
            expect(',', "',' or ']' in array");
        }
    }

    /** Step over a run of digits; false when there is none. */
    bool
    digits()
    {
        const std::size_t from = pos_;
        while (!eof() && peek() >= '0' && peek() <= '9')
            ++pos_;
        return pos_ > from;
    }

    void
    parseNumber(JsonValue &out)
    {
        // RFC 8259's grammar, leading zeros aside: a minus, digits,
        // then a fraction and an exponent, each with digits of its
        // own, so "+8", ".5" and "1." are not numbers.
        const std::size_t start = pos_;
        consume('-');
        if (!digits()) {
            pos_ = start;
            fail("invalid value");
            return;
        }
        bool ok = !consume('.') || digits();
        if (ok && (consume('e') || consume('E'))) {
            if (!consume('+'))
                consume('-');
            ok = digits();
        }
        if (!ok) {
            pos_ = start;
            fail("malformed number");
            return;
        }
        std::string token(text_.substr(start, pos_ - start));
        char *end = nullptr;
        const double parsed = std::strtod(token.c_str(), &end);
        if (end != token.c_str() + token.size()) {
            pos_ = start;
            fail("malformed number");
            return;
        }
        // JSON has no infinity; an underflow (1e-999) still reads
        // as 0.
        if (std::isinf(parsed)) {
            pos_ = start;
            fail("number overflows a double");
            return;
        }
        out.kind_ = JsonValue::Kind::Number;
        out.number_ = parsed;
        out.string_ = std::move(token);
    }

    void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xC0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xE0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (cp & 0x3F));
        }
    }

    bool
    parseHex4(std::uint32_t &out)
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return false;
        }
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_ + i];
            std::uint32_t digit;
            if (c >= '0' && c <= '9')
                digit = c - '0';
            else if (c >= 'a' && c <= 'f')
                digit = 10 + (c - 'a');
            else if (c >= 'A' && c <= 'F')
                digit = 10 + (c - 'A');
            else {
                fail("invalid \\u escape digit");
                return false;
            }
            out = out * 16 + digit;
        }
        pos_ += 4;
        return true;
    }

    void
    parseString(std::string &out)
    {
        ++pos_;  // '"'
        out.clear();
        while (true) {
            if (eof()) {
                fail("unterminated string");
                return;
            }
            const char c = text_[pos_++];
            if (c == '"')
                return;
            if (static_cast<unsigned char>(c) < 0x20) {
                --pos_;
                fail("raw control character in string");
                return;
            }
            if (c != '\\') {
                out += c;
                continue;
            }
            if (eof()) {
                fail("truncated escape");
                return;
            }
            const char esc = text_[pos_++];
            switch (esc) {
              case '"': out += '"'; break;
              case '\\': out += '\\'; break;
              case '/': out += '/'; break;
              case 'b': out += '\b'; break;
              case 'f': out += '\f'; break;
              case 'n': out += '\n'; break;
              case 'r': out += '\r'; break;
              case 't': out += '\t'; break;
              case 'u': {
                std::uint32_t cp;
                if (!parseHex4(cp))
                    return;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: requires \uXXXX low half.
                    if (!consume('\\') || !consume('u')) {
                        fail("unpaired high surrogate");
                        return;
                    }
                    std::uint32_t low;
                    if (!parseHex4(low))
                        return;
                    if (low < 0xDC00 || low > 0xDFFF) {
                        fail("invalid low surrogate");
                        return;
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (low - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("unpaired low surrogate");
                    return;
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                pos_ -= 1;
                fail("unknown escape character");
                return;
            }
        }
    }
};

JsonParseResult
parseJson(std::string_view text)
{
    return JsonParser(text).run();
}

std::optional<std::uint64_t>
exactUint(double v, std::uint64_t lo, std::uint64_t hi)
{
    // 2^64, the first double no std::uint64_t holds.
    constexpr double kTwoTo64 = 18446744073709551616.0;
    if (!(v >= 0.0 && v < kTwoTo64 && v == std::floor(v)))
        return std::nullopt;
    const auto n = static_cast<std::uint64_t>(v);
    if (n < lo || n > hi)
        return std::nullopt;
    return n;
}

std::optional<std::uint64_t>
exactUint(const JsonValue &number, std::uint64_t lo, std::uint64_t hi)
{
    const std::string &text = number.literal();
    if (text.find_first_not_of("0123456789") != std::string::npos)
        return exactUint(number.asNumber(), lo, hi);
    std::uint64_t n = 0;
    if (std::from_chars(text.data(), text.data() + text.size(), n).ec !=
            std::errc() ||
        n < lo || n > hi)
        return std::nullopt;
    return n;
}

std::optional<std::int64_t>
exactInt(double v)
{
    // [-2^63, 2^63): the doubles a std::int64_t holds.
    constexpr double kTwoTo63 = 9223372036854775808.0;
    if (!(v >= -kTwoTo63 && v < kTwoTo63 && v == std::floor(v)))
        return std::nullopt;
    return static_cast<std::int64_t>(v);
}

std::string_view
JsonPath::document() const
{
    return parent_ ? parent_->document() : name_;
}

std::string
JsonPath::str() const
{
    if (!parent_)
        return "";
    std::string out = parent_->str();
    if (index_ != kKey)
        return out + '[' + std::to_string(index_) + ']';
    return (out.empty() ? out : out + '.') + std::string(name_);
}

namespace {

/** Indexed by JsonValue::Kind. */
constexpr const char *kKindNames[] = {"null",     "a bool",
                                      "a number", "a string",
                                      "an array", "an object"};

} // namespace

std::string
describeJson(const JsonValue &value)
{
    switch (value.kind()) {
      case JsonValue::Kind::Bool:
        return value.asBool() ? "true" : "false";
      case JsonValue::Kind::Number:
        return value.literal();
      case JsonValue::Kind::String:
        return JsonWriter::escape(value.asString());
      default:
        return kKindNames[static_cast<int>(value.kind())];
    }
}

Status
checkKind(const JsonValue &value, const JsonPath &path,
          JsonValue::Kind kind)
{
    if (value.kind() == kind)
        return Status();
    return path.error("must be ", kKindNames[static_cast<int>(kind)],
                      " (got ", describeJson(value), ")");
}

Status
readJson(const JsonValue &value, const JsonPath &path,
         std::string &out)
{
    Status s = checkKind(value, path, JsonValue::Kind::String);
    if (s.ok())
        out = value.asString();
    return s;
}

Status
readJson(const JsonValue &value, const JsonPath &path, bool &out)
{
    Status s = checkKind(value, path, JsonValue::Kind::Bool);
    if (s.ok())
        out = value.asBool();
    return s;
}

Status
readJson(const JsonValue &value, const JsonPath &path, double &out)
{
    Status s = checkKind(value, path, JsonValue::Kind::Number);
    if (s.ok())
        out = value.asNumber();
    return s;
}

} // namespace uatm::obs
