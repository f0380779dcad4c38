// Minimal JSON utilities for telemetry output and run-report tooling.
//
// This is deliberately not a full JSON library. The repo needs to
// (a) escape strings it embeds in hand-written JSON reports,
// (b) parse its own atpg_run reports back into a value tree for the run
//     archive and differ (harness/archive, harness/diff), and
// (c) let tests check that a document it wrote parses (json_valid).
// There is one grammar: one recursive-descent parser. Numbers are accepted
// in full RFC 8259 syntax (NaN/Infinity are rejected by the grammar) and
// parsed as double. The parser refuses documents nested deeper than
// kJsonMaxDepth rather than recursing without bound.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace satpg {

/// Containers/recursion deeper than this fail parsing.
inline constexpr std::size_t kJsonMaxDepth = 256;

/// Escape a string for embedding between double quotes in JSON output.
std::string json_escape(const std::string& s);

/// Strict whole-document validation: json_parse into a discarded value.
/// True iff `text` is exactly one JSON value (plus surrounding
/// whitespace); on failure *error (if non-null) gets json_parse's message.
bool json_valid(const std::string& text, std::string* error = nullptr);

/// Parsed JSON value. Objects keep their members in document order (the
/// reports this repo writes are deterministic, so order is meaningful for
/// byte-stable re-rendering); lookup is linear, which is fine at report
/// sizes. Strings are decoded: escape sequences are resolved and \uXXXX
/// becomes UTF-8 (surrogate pairs combined; a lone surrogate decodes to
/// U+FFFD).
class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  JsonValue() = default;

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_bool() const { return kind_ == Kind::kBool; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_object() const { return kind_ == Kind::kObject; }

  bool boolean() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& array() const { return array_; }
  const std::vector<std::pair<std::string, JsonValue>>& members() const {
    return members_;
  }

  /// First member named `key`, or nullptr (also for non-objects).
  const JsonValue* find(const std::string& key) const;

  // Typed conveniences with defaults — missing or mistyped fields degrade
  // gracefully; uint_or also falls back for a number outside uint64_t.
  double num_or(const std::string& key, double dflt) const;
  std::uint64_t uint_or(const std::string& key, std::uint64_t dflt) const;
  std::string str_or(const std::string& key, const std::string& dflt) const;
  bool bool_or(const std::string& key, bool dflt) const;

  // Construction (used by the parser; tests may build values directly).
  static JsonValue make_null() { return JsonValue(); }
  static JsonValue make_bool(bool b);
  static JsonValue make_number(double v);
  static JsonValue make_string(std::string s);
  static JsonValue make_array(std::vector<JsonValue> items);
  static JsonValue make_object(
      std::vector<std::pair<std::string, JsonValue>> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> array_;
  std::vector<std::pair<std::string, JsonValue>> members_;
};

/// Strict whole-document parse of exactly one JSON value. Returns false
/// (with a one-line byte-offset message in *error when non-null) on any
/// syntax error, trailing bytes, or nesting beyond kJsonMaxDepth.
bool json_parse(const std::string& text, JsonValue* out,
                std::string* error = nullptr);

}  // namespace satpg
