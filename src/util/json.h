// Minimal JSON support shared by mapping rendering, the match service's
// response serialization, and the cupid_server JSONL protocol.
//
// One escaper for the whole library (previously private to
// mapping/mapping_render.cc), a small comma-managing writer, and a
// recursive-descent parser for the request side of the JSONL protocol.
// Deliberately tiny: no DOM mutation API, no streaming reads — schema
// matching requests are one object per line.

#ifndef CUPID_UTIL_JSON_H_
#define CUPID_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/status.h"

namespace cupid {

/// \brief Appends the JSON string-escaped form of `s` (no quotes) to `out`.
///
/// Escapes '"', '\\', control characters (as \n, \t, or \u00XX); all other
/// bytes pass through, so UTF-8 input stays UTF-8.
void JsonEscapeTo(std::string_view s, std::string* out);

/// \brief JSON string-escaped copy of `s` (no surrounding quotes).
std::string JsonEscape(std::string_view s);

/// \brief Compact JSON emitter with automatic comma placement.
///
///     JsonWriter w;
///     w.BeginObject();
///     w.Key("status"); w.String("ok");
///     w.Key("hits");   w.Int(3);
///     w.EndObject();
///     std::string line = std::move(w).str();   // {"status":"ok","hits":3}
///
/// The writer trusts its caller to produce well-formed nesting (asserted in
/// debug builds): every Key is followed by exactly one value, Begin/End
/// calls balance.
class JsonWriter {
 public:
  void BeginObject() { Prefix(); out_ += '{'; PushContainer(); }
  void EndObject() { PopContainer(); out_ += '}'; }
  void BeginArray() { Prefix(); out_ += '['; PushContainer(); }
  void EndArray() { PopContainer(); out_ += ']'; }

  /// Emits `"name":` (must be inside an object, before a value). At the
  /// top level, Key/value pairs form a bare member list (`"a":1,"b":2`),
  /// the form RawMembers splices.
  void Key(std::string_view name);

  /// Splices pre-rendered members (`"a":1,"b":{…}`, non-empty) into the
  /// open object, comma-separated from their siblings like one Key/value.
  void RawMembers(std::string_view members);

  void String(std::string_view value);
  void Int(int64_t value);
  void UInt(uint64_t value);
  /// Shortest round-trippable representation ("%.17g" trimmed).
  void Double(double value);
  /// Fixed-point representation, e.g. FixedDouble(0.5, 6) -> "0.500000";
  /// byte-identical to printf("%.*f", precision, value).
  void FixedDouble(double value, int precision);
  void Bool(bool value);
  void Null();

  /// The document built so far; call after the outermost End*.
  const std::string& str() const& { return out_; }
  std::string str() && { return std::move(out_); }

 private:
  /// Emits the separating comma when a value follows a prior sibling.
  void Prefix();
  void PushContainer() { first_in_scope_.push_back(true); }
  void PopContainer() { first_in_scope_.pop_back(); }

  std::string out_;
  /// first_in_scope_[d] — no sibling emitted yet at nesting depth d.
  std::vector<bool> first_in_scope_{true};
  /// A Key was just written; the next value must not emit a comma.
  bool after_key_ = false;
};

/// \brief A parsed JSON value (object keys keep their input order).
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool bool_value = false;
  double number = 0.0;
  std::string string;
  std::vector<JsonValue> array;
  std::vector<std::pair<std::string, JsonValue>> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  bool is_string() const { return type == Type::kString; }
  bool is_number() const { return type == Type::kNumber; }

  /// Member of an object by key; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed member access with a fallback for absent keys. A present member
  /// of the wrong type is NOT coerced; the fallback is returned.
  std::string GetString(std::string_view key, std::string fallback = "") const;
  double GetNumber(std::string_view key, double fallback = 0.0) const;
  int64_t GetInt(std::string_view key, int64_t fallback = 0) const;
  bool GetBool(std::string_view key, bool fallback = false) const;
  /// An integer member read without truncation: `fallback` when absent;
  /// InvalidArgument when present but not a number, not integral, or
  /// outside the int range.
  Result<int> GetCheckedInt(std::string_view key, int fallback = 0) const;
};

/// \brief Parses exactly one JSON document (trailing whitespace allowed;
/// trailing content is a ParseError). Numbers go through util ParseDouble;
/// \uXXXX escapes are decoded to UTF-8 (surrogate pairs supported).
Result<JsonValue> ParseJson(std::string_view text);

}  // namespace cupid

#endif  // CUPID_UTIL_JSON_H_
