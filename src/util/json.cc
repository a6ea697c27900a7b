#include "util/json.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <system_error>

#include "util/strings.h"

namespace cupid {

void JsonEscapeTo(std::string_view s, std::string* out) {
  // Bytes that need no escape are appended a run at a time.
  size_t start = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + start, i - start);
    start = i + 1;
    switch (c) {
      case '"': *out += "\\\""; break;
      case '\\': *out += "\\\\"; break;
      case '\n': *out += "\\n"; break;
      case '\t': *out += "\\t"; break;
      default: *out += StringFormat("\\u%04x", c);
    }
  }
  out->append(s.data() + start, s.size() - start);
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  JsonEscapeTo(s, &out);
  return out;
}

// ----------------------------------------------------------------- writer --

void JsonWriter::Prefix() {
  if (after_key_) {
    after_key_ = false;
    return;
  }
  if (!first_in_scope_.back()) out_ += ',';
  first_in_scope_.back() = false;
}

void JsonWriter::Key(std::string_view name) {
  assert(!after_key_);
  Prefix();
  out_ += '"';
  JsonEscapeTo(name, &out_);
  out_ += "\":";
  after_key_ = true;
}

void JsonWriter::RawMembers(std::string_view members) {
  assert(!after_key_);
  Prefix();
  // Headroom for the closing members and braces that usually follow, so a
  // large splice is copied once.
  out_.reserve(out_.size() + members.size() + 64);
  out_.append(members);
}

void JsonWriter::String(std::string_view value) {
  Prefix();
  out_ += '"';
  JsonEscapeTo(value, &out_);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  Prefix();
  out_ += std::to_string(value);
}

void JsonWriter::UInt(uint64_t value) {
  Prefix();
  out_ += std::to_string(value);
}

void JsonWriter::Double(double value) {
  Prefix();
  // %.17g round-trips every double; trim the common integral case so small
  // counters read naturally.
  std::string s = StringFormat("%.17g", value);
  out_ += s;
}

void JsonWriter::FixedDouble(double value, int precision) {
  Prefix();
  // std::to_chars in fixed format with a precision is specified to print
  // what printf("%.*f") prints, without the format-string machinery. The
  // buffer fits the largest double (309 integral digits) at the precisions
  // callers use; anything longer falls back to printf.
  char buf[384];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value,
                                 std::chars_format::fixed, precision);
  if (ec == std::errc()) {
    out_.append(buf, end);
  } else {
    out_ += StringFormat("%.*f", precision, value);
  }
}

void JsonWriter::Bool(bool value) {
  Prefix();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  Prefix();
  out_ += "null";
}

// ------------------------------------------------------------------ value --

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

std::string JsonValue::GetString(std::string_view key,
                                 std::string fallback) const {
  const JsonValue* v = Find(key);
  return (v && v->type == Type::kString) ? v->string : std::move(fallback);
}

double JsonValue::GetNumber(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v && v->type == Type::kNumber) ? v->number : fallback;
}

int64_t JsonValue::GetInt(std::string_view key, int64_t fallback) const {
  const JsonValue* v = Find(key);
  return (v && v->type == Type::kNumber) ? static_cast<int64_t>(v->number)
                                         : fallback;
}

Result<int> JsonValue::GetCheckedInt(std::string_view key,
                                     int fallback) const {
  const JsonValue* v = Find(key);
  if (v == nullptr) return fallback;
  // The range test comes first: it is false for NaN, and the cast below is
  // defined only inside it.
  if (v->type != Type::kNumber ||
      !(v->number >= std::numeric_limits<int>::min() &&
        v->number <= std::numeric_limits<int>::max()) ||
      std::floor(v->number) != v->number) {
    return Status::InvalidArgument(std::string(key) +
                                   " must be an integer in the int range");
  }
  return static_cast<int>(v->number);
}

bool JsonValue::GetBool(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v && v->type == Type::kBool) ? v->bool_value : fallback;
}

// ----------------------------------------------------------------- parser --

namespace {

/// Hand-rolled recursive-descent parser; positions tracked for error
/// messages ("offset N" — JSONL lines are short, column == offset).
class JsonParser {
 public:
  explicit JsonParser(std::string_view text) : text_(text) {}

  Result<JsonValue> Parse() {
    JsonValue v;
    CUPID_RETURN_NOT_OK(ParseValue(&v, /*depth=*/0));
    SkipWhitespace();
    if (pos_ != text_.size()) {
      return Error("trailing content after JSON document");
    }
    return v;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError(
        StringFormat("JSON offset %zu: %s", pos_, what.c_str()));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c)) return Error(StringFormat("expected '%c'", c));
    return Status::OK();
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    switch (text_[pos_]) {
      case '{': return ParseObject(out, depth);
      case '[': return ParseArray(out, depth);
      case '"':
        out->type = JsonValue::Type::kString;
        return ParseString(&out->string);
      case 't':
      case 'f': return ParseLiteral(out);
      case 'n': return ParseLiteral(out);
      default: return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kObject;
    CUPID_RETURN_NOT_OK(Expect('{'));
    SkipWhitespace();
    if (Consume('}')) return Status::OK();
    for (;;) {
      SkipWhitespace();
      std::string key;
      CUPID_RETURN_NOT_OK(ParseString(&key));
      SkipWhitespace();
      CUPID_RETURN_NOT_OK(Expect(':'));
      JsonValue value;
      CUPID_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->object.emplace_back(std::move(key), std::move(value));
      SkipWhitespace();
      if (Consume('}')) return Status::OK();
      CUPID_RETURN_NOT_OK(Expect(','));
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    out->type = JsonValue::Type::kArray;
    CUPID_RETURN_NOT_OK(Expect('['));
    SkipWhitespace();
    if (Consume(']')) return Status::OK();
    for (;;) {
      JsonValue value;
      CUPID_RETURN_NOT_OK(ParseValue(&value, depth + 1));
      out->array.push_back(std::move(value));
      SkipWhitespace();
      if (Consume(']')) return Status::OK();
      CUPID_RETURN_NOT_OK(Expect(','));
    }
  }

  Status ParseLiteral(JsonValue* out) {
    auto match = [&](std::string_view word) {
      if (text_.substr(pos_, word.size()) != word) return false;
      pos_ += word.size();
      return true;
    };
    if (match("true")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = true;
      return Status::OK();
    }
    if (match("false")) {
      out->type = JsonValue::Type::kBool;
      out->bool_value = false;
      return Status::OK();
    }
    if (match("null")) {
      out->type = JsonValue::Type::kNull;
      return Status::OK();
    }
    return Error("invalid literal");
  }

  Status ParseNumber(JsonValue* out) {
    size_t start = pos_;
    if (Consume('-')) {}
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    auto parsed = ParseDouble(text_.substr(start, pos_ - start));
    if (!parsed.ok()) return Error("invalid number");
    out->type = JsonValue::Type::kNumber;
    out->number = *parsed;
    return Status::OK();
  }

  /// Appends `cp` to `out` as UTF-8.
  static void AppendUtf8(uint32_t cp, std::string* out) {
    if (cp < 0x80) {
      *out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      *out += static_cast<char>(0xC0 | (cp >> 6));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      *out += static_cast<char>(0xE0 | (cp >> 12));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      *out += static_cast<char>(0xF0 | (cp >> 18));
      *out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      *out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      *out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  Status ParseHex4(uint32_t* out) {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_ + static_cast<size_t>(i)];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    CUPID_RETURN_NOT_OK(Expect('"'));
    out->clear();
    for (;;) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        *out += c;
        continue;
      }
      if (pos_ >= text_.size()) return Error("truncated escape");
      char esc = text_[pos_++];
      switch (esc) {
        case '"': *out += '"'; break;
        case '\\': *out += '\\'; break;
        case '/': *out += '/'; break;
        case 'b': *out += '\b'; break;
        case 'f': *out += '\f'; break;
        case 'n': *out += '\n'; break;
        case 'r': *out += '\r'; break;
        case 't': *out += '\t'; break;
        case 'u': {
          uint32_t cp = 0;
          CUPID_RETURN_NOT_OK(ParseHex4(&cp));
          if (cp >= 0xD800 && cp <= 0xDBFF) {
            // High surrogate: a \uDC00-\uDFFF low half must follow.
            if (pos_ + 2 > text_.size() || text_[pos_] != '\\' ||
                text_[pos_ + 1] != 'u') {
              return Error("unpaired surrogate");
            }
            pos_ += 2;
            uint32_t low = 0;
            CUPID_RETURN_NOT_OK(ParseHex4(&low));
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("unpaired surrogate");
            }
            cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
          } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
            return Error("unpaired surrogate");
          }
          AppendUtf8(cp, out);
          break;
        }
        default: return Error("invalid escape");
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<JsonValue> ParseJson(std::string_view text) {
  return JsonParser(text).Parse();
}

}  // namespace cupid
