#include "base/json.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "base/strutil.h"

namespace satpg {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += strprintf("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

namespace {

// Recursive-descent parser building a JsonValue tree; pos_ tracks the
// byte offset for error messages.
class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  bool run(JsonValue* out, std::string* error) {
    skip_ws();
    if (!value(out)) {
      if (error) *error = strprintf("JSON parse error at byte %zu", pos_);
      return false;
    }
    skip_ws();
    if (pos_ != text_.size()) {
      if (error)
        *error = strprintf("trailing bytes after JSON value at byte %zu",
                           pos_);
      return false;
    }
    return true;
  }

 private:
  char peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  bool eof() const { return pos_ >= text_.size(); }

  void skip_ws() {
    while (!eof()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  bool literal(const char* word) {
    std::size_t i = 0;
    while (word[i]) {
      if (pos_ + i >= text_.size() || text_[pos_ + i] != word[i])
        return false;
      ++i;
    }
    pos_ += i;
    return true;
  }

  static void append_utf8(std::string& out, std::uint32_t cp) {
    if (cp < 0x80) {
      out.push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  /// Four hex digits at pos_; advances past them on success.
  bool hex4(std::uint32_t* out) {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      if (eof()) return false;
      const char c = text_[pos_];
      if (!std::isxdigit(static_cast<unsigned char>(c))) return false;
      v = v * 16 + static_cast<std::uint32_t>(
                       c <= '9' ? c - '0' : (c | 0x20) - 'a' + 10);
      ++pos_;
    }
    *out = v;
    return true;
  }

  bool string(std::string* out) {
    if (peek() != '"') return false;
    ++pos_;
    out->clear();
    while (!eof()) {
      const char c = text_[pos_];
      if (c == '"') {
        ++pos_;
        return true;
      }
      if (c == '\\') {
        ++pos_;
        if (eof()) return false;
        const char e = text_[pos_++];
        switch (e) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'b': out->push_back('\b'); break;
          case 'f': out->push_back('\f'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            std::uint32_t cp;
            if (!hex4(&cp)) return false;
            if (cp >= 0xD800 && cp <= 0xDBFF) {
              // High surrogate: pairs with an immediately following \uDC00..
              // \uDFFF; otherwise decode as U+FFFD (lossy, not an error).
              std::uint32_t lo;
              if (pos_ + 1 < text_.size() && text_[pos_] == '\\' &&
                  text_[pos_ + 1] == 'u') {
                const std::size_t save = pos_;
                pos_ += 2;
                if (hex4(&lo) && lo >= 0xDC00 && lo <= 0xDFFF) {
                  cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                } else {
                  pos_ = save;
                  cp = 0xFFFD;
                }
              } else {
                cp = 0xFFFD;
              }
            } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
              cp = 0xFFFD;  // unpaired low surrogate
            }
            append_utf8(*out, cp);
            break;
          }
          default:
            return false;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        return false;  // raw control character
      } else {
        out->push_back(c);
        ++pos_;
      }
    }
    return false;  // unterminated
  }

  bool number(double* out) {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (std::isdigit(static_cast<unsigned char>(peek()))) {
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    } else {
      return false;
    }
    if (peek() == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) return false;
      while (std::isdigit(static_cast<unsigned char>(peek()))) ++pos_;
    }
    // The grammar above admits only valid strtod input (and no NaN/Inf
    // spellings — those fail before we get here).
    *out = std::strtod(text_.c_str() + start, nullptr);
    return true;
  }

  bool value(JsonValue* out) {
    switch (peek()) {
      case '{': {
        if (++depth_ > kJsonMaxDepth) return false;
        ++pos_;
        std::vector<std::pair<std::string, JsonValue>> members;
        skip_ws();
        if (peek() == '}') {
          ++pos_;
        } else {
          while (true) {
            skip_ws();
            std::string key;
            if (!string(&key)) return false;
            skip_ws();
            if (peek() != ':') return false;
            ++pos_;
            skip_ws();
            JsonValue v;
            if (!value(&v)) return false;
            members.emplace_back(std::move(key), std::move(v));
            skip_ws();
            if (peek() == ',') {
              ++pos_;
              continue;
            }
            if (peek() == '}') {
              ++pos_;
              break;
            }
            return false;
          }
        }
        --depth_;
        *out = JsonValue::make_object(std::move(members));
        return true;
      }
      case '[': {
        if (++depth_ > kJsonMaxDepth) return false;
        ++pos_;
        std::vector<JsonValue> items;
        skip_ws();
        if (peek() == ']') {
          ++pos_;
        } else {
          while (true) {
            skip_ws();
            JsonValue v;
            if (!value(&v)) return false;
            items.push_back(std::move(v));
            skip_ws();
            if (peek() == ',') {
              ++pos_;
              continue;
            }
            if (peek() == ']') {
              ++pos_;
              break;
            }
            return false;
          }
        }
        --depth_;
        *out = JsonValue::make_array(std::move(items));
        return true;
      }
      case '"': {
        std::string s;
        if (!string(&s)) return false;
        *out = JsonValue::make_string(std::move(s));
        return true;
      }
      case 't':
        if (!literal("true")) return false;
        *out = JsonValue::make_bool(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        *out = JsonValue::make_bool(false);
        return true;
      case 'n':
        if (!literal("null")) return false;
        *out = JsonValue::make_null();
        return true;
      default: {
        double d;
        if (!number(&d)) return false;
        *out = JsonValue::make_number(d);
        return true;
      }
    }
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  std::size_t depth_ = 0;
};

}  // namespace

// ---- JsonValue --------------------------------------------------------------

const JsonValue* JsonValue::find(const std::string& key) const {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [k, v] : members_)
    if (k == key) return &v;
  return nullptr;
}

double JsonValue::num_or(const std::string& key, double dflt) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_number()) ? v->number() : dflt;
}

std::uint64_t JsonValue::uint_or(const std::string& key,
                                 std::uint64_t dflt) const {
  const JsonValue* v = find(key);
  if (v == nullptr || !v->is_number() || v->number() < 0 ||
      v->number() >= 0x1p64)
    return dflt;
  return static_cast<std::uint64_t>(v->number());
}

std::string JsonValue::str_or(const std::string& key,
                              const std::string& dflt) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_string()) ? v->string() : dflt;
}

bool JsonValue::bool_or(const std::string& key, bool dflt) const {
  const JsonValue* v = find(key);
  return (v != nullptr && v->is_bool()) ? v->boolean() : dflt;
}

JsonValue JsonValue::make_bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::make_number(double d) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = d;
  return v;
}

JsonValue JsonValue::make_string(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::make_array(std::vector<JsonValue> items) {
  JsonValue v;
  v.kind_ = Kind::kArray;
  v.array_ = std::move(items);
  return v;
}

JsonValue JsonValue::make_object(
    std::vector<std::pair<std::string, JsonValue>> members) {
  JsonValue v;
  v.kind_ = Kind::kObject;
  v.members_ = std::move(members);
  return v;
}

bool json_parse(const std::string& text, JsonValue* out,
                std::string* error) {
  return Parser(text).run(out, error);
}

bool json_valid(const std::string& text, std::string* error) {
  JsonValue discarded;
  return json_parse(text, &discarded, error);
}

}  // namespace satpg
