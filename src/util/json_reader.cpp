#include "util/json_reader.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

namespace speccal::util {

namespace {

constexpr auto npos = std::string_view::npos;

/// End of the RFC 8259 number that starts at `pos`, or npos when the text
/// there is not one: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
std::size_t scan_number(std::string_view s, std::size_t pos) {
  const auto digits = [s](std::size_t i) {
    const std::size_t start = i;
    while (i < s.size() && s[i] >= '0' && s[i] <= '9') ++i;
    return i == start ? npos : i;
  };
  std::size_t i = pos;
  if (i < s.size() && s[i] == '-') ++i;
  if (i < s.size() && s[i] == '0') ++i;
  else if ((i = digits(i)) == npos) return npos;
  if (i < s.size() && s[i] == '.' && (i = digits(i + 1)) == npos) return npos;
  if (i < s.size() && (s[i] == 'e' || s[i] == 'E')) {
    ++i;
    if (i < s.size() && (s[i] == '+' || s[i] == '-')) ++i;
    i = digits(i);
  }
  return i;
}

void append_utf8(std::string& out, char32_t cp) {
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

[[noreturn]] void not_a_number(std::string_view text, std::string_view what) {
  throw std::invalid_argument(std::string(what) + " must be a number, got '" +
                              std::string(text) + "'");
}

}  // namespace

JsonReader::Value JsonReader::parse(std::string_view text) {
  JsonReader reader(text);
  Value v = reader.parse_value(0);
  reader.skip_ws();
  if (reader.pos_ != text.size()) reader.fail("trailing content after document");
  return v;
}

double JsonReader::number(std::string_view text, std::string_view what) {
  if (scan_number(text, 0) != text.size()) not_a_number(text, what);
  const double v = std::strtod(std::string(text).c_str(), nullptr);
  if (std::isinf(v))
    throw std::invalid_argument(std::string(what) + " = " + std::string(text) +
                                " is out of range");
  return v;
}

std::string JsonReader::integer_digits(std::string_view text,
                                       std::string_view what) {
  if (scan_number(text, 0) != text.size()) not_a_number(text, what);
  const bool negative = text.front() == '-';
  const std::size_t e = text.find_first_of("eE");
  std::string_view mantissa = text.substr(0, e);
  if (negative) mantissa.remove_prefix(1);
  // Decimal exponent, saturated: anything past 1e9 is out of every range.
  long long exponent = 0;
  if (e != npos) {
    for (const char c : text.substr(e + 1))
      if (c >= '0' && c <= '9')
        exponent = std::min(exponent * 10 + (c - '0'), 1'000'000'000LL);
    if (text[e + 1] == '-') exponent = -exponent;
  }
  const std::size_t dot = mantissa.find('.');
  std::string digits(mantissa.substr(0, dot));
  if (dot != npos) {
    digits += mantissa.substr(dot + 1);
    exponent -= static_cast<long long>(mantissa.size() - dot - 1);
  }
  digits.erase(0, std::min(digits.find_first_not_of('0'), digits.size()));
  if (digits.empty()) return "0";  // any spelling of zero, "-0" included
  for (; digits.back() == '0'; digits.pop_back()) ++exponent;
  if (exponent < 0)
    throw std::invalid_argument(std::string(what) + " must be an integer, got " +
                                std::string(text));
  // 21 zeros already exceed every 64-bit type, so pad no further.
  digits.append(static_cast<std::size_t>(std::min(exponent, 21LL)), '0');
  return negative ? "-" + digits : digits;
}

void JsonReader::fail(const std::string& what) const {
  throw std::invalid_argument(what + " at byte " + std::to_string(pos_));
}

void JsonReader::skip_ws() {
  while (pos_ < text_.size() && (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                                 text_[pos_] == '\n' || text_[pos_] == '\r'))
    ++pos_;
}

bool JsonReader::consume(char c) {
  skip_ws();
  if (pos_ >= text_.size() || text_[pos_] != c) return false;
  ++pos_;
  return true;
}

void JsonReader::expect(char c) {
  if (consume(c)) return;
  if (pos_ >= text_.size()) fail("unexpected end of input");
  fail(std::string("expected '") + c + "'");
}

JsonReader::Value JsonReader::parse_value(int depth) {
  skip_ws();
  if (pos_ >= text_.size()) fail("unexpected end of input");
  const auto literal = [this](std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  };
  Value v;
  const char c = text_[pos_];
  if ((c == '{' || c == '[') && depth == kMaxDepth)
    fail("nesting deeper than " + std::to_string(kMaxDepth) + " levels");
  if (c == '{') v.data_ = parse_object(depth + 1);
  else if (c == '[') v.data_ = parse_array(depth + 1);
  else if (c == '"') v.data_ = parse_string();
  else if (literal("true")) v.data_ = true;
  else if (literal("false")) v.data_ = false;
  else if (literal("null")) v.data_ = nullptr;
  else v.data_ = parse_number();
  return v;
}

JsonReader::Object JsonReader::parse_object(int depth) {
  expect('{');
  Object object;
  if (consume('}')) return object;
  do {
    skip_ws();
    const std::size_t key_at = pos_;
    std::string key = parse_string();
    if (object.count(key) != 0) {
      pos_ = key_at;
      fail("duplicate key '" + key + "'");
    }
    expect(':');
    object.emplace(std::move(key), parse_value(depth));
  } while (consume(','));
  expect('}');
  return object;
}

JsonReader::Array JsonReader::parse_array(int depth) {
  expect('[');
  Array array;
  if (consume(']')) return array;
  do array.push_back(parse_value(depth));
  while (consume(','));
  expect(']');
  return array;
}

std::string JsonReader::parse_string() {
  expect('"');
  std::string out;
  for (;;) {
    if (pos_ >= text_.size()) fail("unterminated string");
    const char c = text_[pos_];
    if (static_cast<unsigned char>(c) < 0x20)
      fail("raw control character in string");
    ++pos_;
    if (c == '"') return out;
    if (c != '\\') {
      out.push_back(c);
      continue;
    }
    if (pos_ >= text_.size()) fail("unterminated string");
    switch (text_[pos_++]) {
      case '"': out.push_back('"'); break;
      case '\\': out.push_back('\\'); break;
      case '/': out.push_back('/'); break;
      case 'b': out.push_back('\b'); break;
      case 'f': out.push_back('\f'); break;
      case 'n': out.push_back('\n'); break;
      case 'r': out.push_back('\r'); break;
      case 't': out.push_back('\t'); break;
      case 'u': append_utf8(out, parse_escaped_code_point()); break;
      default: --pos_; fail("bad escape");
    }
  }
}

char32_t JsonReader::parse_escaped_code_point() {
  const char32_t hi = parse_hex4();
  if (hi >= 0xDC00 && hi <= 0xDFFF) fail("lone low surrogate");
  if (hi < 0xD800 || hi > 0xDBFF) return hi;
  if (text_.substr(pos_, 2) != "\\u") fail("lone high surrogate");
  pos_ += 2;
  const char32_t lo = parse_hex4();
  if (lo < 0xDC00 || lo > 0xDFFF) fail("lone high surrogate");
  return 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
}

unsigned JsonReader::parse_hex4() {
  unsigned code = 0;
  const char* first = text_.data() + pos_;
  const char* last = first + std::min<std::size_t>(4, text_.size() - pos_);
  const auto [stop, ec] = std::from_chars(first, last, code, 16);
  if (ec != std::errc{} || stop != first + 4) fail("bad \\u escape");
  pos_ += 4;
  return code;
}

JsonReader::Value::Number JsonReader::parse_number() {
  const std::size_t end = scan_number(text_, pos_);
  if (end == npos) fail("expected a JSON value");
  std::string text(text_.substr(pos_, end - pos_));
  const double value = std::strtod(text.c_str(), nullptr);
  if (std::isinf(value)) fail("number out of range");
  pos_ = end;
  return {value, std::move(text)};
}

}  // namespace speccal::util
