#include "minijson.hpp"

#include <charconv>
#include <cmath>

namespace perfbench::json {

const Value* Value::find(std::string_view key) const {
  for (const auto& [k, v] : members)
    if (k == key) return &v;
  return nullptr;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : s_(text) {}

  std::optional<Value> document() {
    Value v;
    if (!value(v, 0)) return std::nullopt;
    skip_ws();
    if (pos_ != s_.size()) return std::nullopt;
    return v;
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' || s_[pos_] == '\t'))
      ++pos_;
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool value(Value& out, int depth) {
    if (depth > 64) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object(out, depth);
      case '[': return array(out, depth);
      case '"': out.type = Value::Type::kString; return string(out.string);
      case 't': out.type = Value::Type::kBool; out.boolean = true; return literal("true");
      case 'f': out.type = Value::Type::kBool; return literal("false");
      case 'n': out.type = Value::Type::kNull; return literal("null");
      default: out.type = Value::Type::kNumber; return number(out.number);
    }
  }

  bool object(Value& out, int depth) {
    out.type = Value::Type::kObject;
    ++pos_;  // '{'
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      skip_ws();
      std::string key;
      if (pos_ >= s_.size() || s_[pos_] != '"' || !string(key)) return false;
      skip_ws();
      if (pos_ >= s_.size() || s_[pos_] != ':') return false;
      ++pos_;
      Value v;
      if (!value(v, depth + 1)) return false;
      out.members.emplace_back(std::move(key), std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return false;
    }
  }

  bool array(Value& out, int depth) {
    out.type = Value::Type::kArray;
    ++pos_;  // '['
    skip_ws();
    if (pos_ < s_.size() && s_[pos_] == ']') {
      ++pos_;
      return true;
    }
    while (true) {
      Value v;
      if (!value(v, depth + 1)) return false;
      out.items.push_back(std::move(v));
      skip_ws();
      if (pos_ >= s_.size()) return false;
      if (s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      if (s_[pos_++] != ',') return false;
    }
  }

  bool string(std::string& out) {
    ++pos_;  // opening quote
    while (pos_ < s_.size()) {
      const char c = s_[pos_++];
      if (c == '"') return true;
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= s_.size()) return false;
      const char e = s_[pos_++];
      switch (e) {
        case '"': case '\\': case '/': out.push_back(e); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          // Trace strings are node ids and stage names; keep \u escapes
          // as '?' rather than decoding UTF-16.
          if (pos_ + 4 > s_.size()) return false;
          pos_ += 4;
          out.push_back('?');
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  bool number(double& out) {
    const char* first = s_.data() + pos_;
    const char* last = s_.data() + s_.size();
    const auto [ptr, ec] = std::from_chars(first, last, out);
    if (ec != std::errc{} || ptr == first || !std::isfinite(out)) return false;
    pos_ += static_cast<std::size_t>(ptr - first);
    return true;
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

std::optional<Value> parse(std::string_view text) { return Parser(text).document(); }

}  // namespace perfbench::json
