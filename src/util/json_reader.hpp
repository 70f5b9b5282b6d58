// Strict JSON reader: the repository's one JSON parser.
//
// Reads RFC 8259 text from outside the program (inline fault and
// adversary profiles, numeric CLI flags) and the exports tests check
// against JsonWriter's output. Every error is a std::invalid_argument:
//   * syntax errors carry the byte offset ("expected ':' at byte 17");
//   * rejected input: duplicate object keys, raw control characters in
//     strings, lone UTF-16 surrogates, numbers outside the RFC grammar
//     (+1, .5, 01, NaN) or beyond double's range, trailing content, and
//     nesting deeper than kMaxDepth (the reader recurses per level, so
//     the limit bounds its stack on inputs like "[[[[...");
//   * typed accessors name the field path ("nodes[0].faults[1].first")
//     when a value has the wrong type.
// Integers are converted exactly from the number's source text, so a u64
// seed above 2^53 round-trips and "2.7" is never silently read as 2.
#pragma once

#include <charconv>
#include <concepts>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace speccal::util {

class JsonReader {
 public:
  class Value;
  using Array = std::vector<Value>;
  using Object = std::map<std::string, Value>;

  /// Deepest container nesting parse() accepts (the root counts as 1).
  static constexpr int kMaxDepth = 64;

  /// One parsed value. Accessors take the field path used in error
  /// messages; each throws std::invalid_argument naming it when the value
  /// has another type.
  class Value {
   public:
    [[nodiscard]] bool is_null() const { return holds<std::nullptr_t>(); }
    [[nodiscard]] bool is_bool() const { return holds<bool>(); }
    [[nodiscard]] bool is_number() const { return holds<Number>(); }
    [[nodiscard]] bool is_string() const { return holds<std::string>(); }
    [[nodiscard]] bool is_array() const { return holds<Array>(); }
    [[nodiscard]] bool is_object() const { return holds<Object>(); }

    [[nodiscard]] bool boolean(std::string_view path = "value") const {
      return get<bool>(path, "a boolean");
    }
    [[nodiscard]] double number(std::string_view path = "value") const {
      return get<Number>(path, "a number").value;
    }
    /// Exact conversion of the number's text; see JsonReader::integer.
    template <std::integral T>
    [[nodiscard]] T integer(std::string_view path = "value") const {
      return JsonReader::integer<T>(get<Number>(path, "an integer").text, path);
    }
    [[nodiscard]] const std::string& str(std::string_view path = "value") const {
      return get<std::string>(path, "a string");
    }
    /// The enumerator among 0..last whose to_string() (found by
    /// argument-dependent lookup) equals this string.
    template <typename Enum>
    [[nodiscard]] Enum enumerator(Enum last, std::string_view path = "value") const {
      const std::string& name = str(path);
      std::string names;
      for (int i = 0; i <= static_cast<int>(last); ++i) {
        const auto e = static_cast<Enum>(i);
        if (name == to_string(e)) return e;
        names += (i == 0 ? "" : "|") + std::string(to_string(e));
      }
      throw std::invalid_argument(std::string(path) + ": unknown value '" +
                                  name + "' (" + names + ")");
    }
    [[nodiscard]] const Array& array(std::string_view path = "value") const {
      return get<Array>(path, "an array");
    }
    [[nodiscard]] const Object& object(std::string_view path = "value") const {
      return get<Object>(path, "an object");
    }

    /// Object member access; throws std::out_of_range when missing.
    [[nodiscard]] const Value& at(const std::string& key) const {
      return object().at(key);
    }
    [[nodiscard]] bool has(const std::string& key) const {
      return is_object() && object().count(key) > 0;
    }

   private:
    friend class JsonReader;
    struct Number {
      double value = 0.0;
      std::string text;  // as written, for exact integer conversion
    };

    template <typename T>
    [[nodiscard]] bool holds() const {
      return std::holds_alternative<T>(data_);
    }
    template <typename T>
    [[nodiscard]] const T& get(std::string_view path, const char* type) const {
      if (const T* v = std::get_if<T>(&data_)) return *v;
      throw std::invalid_argument(std::string(path) + " must be " + type);
    }

    std::variant<std::nullptr_t, bool, Number, std::string, Array, Object> data_;
  };

  /// Parses one complete document.
  [[nodiscard]] static Value parse(std::string_view text);

  /// The value of `text`, which must be one JSON number and nothing else
  /// (no whitespace). Throws std::invalid_argument naming `what` otherwise.
  [[nodiscard]] static double number(std::string_view text, std::string_view what);

  /// Exact integer value of the JSON number `text` ("1e3" is 1000).
  /// Throws std::invalid_argument naming `what` when `text` is not a JSON
  /// number, has a fractional part, is negative while T is unsigned, or
  /// lies outside T.
  template <std::integral T>
  [[nodiscard]] static T integer(std::string_view text, std::string_view what) {
    const std::string digits = integer_digits(text, what);
    T out{};
    const char* end = digits.data() + digits.size();
    const auto [stop, ec] = std::from_chars(digits.data(), end, out);
    if (ec == std::errc{} && stop == end) return out;
    // from_chars only refuses the '-' of a negative value for unsigned T.
    throw std::invalid_argument(
        std::string(what) + " = " + std::string(text) +
        (ec == std::errc::invalid_argument ? " must not be negative"
                                           : " is out of range"));
  }

 private:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// "-123"-style decimal digits of the integer `text` denotes.
  static std::string integer_digits(std::string_view text, std::string_view what);

  [[noreturn]] void fail(const std::string& what) const;
  void skip_ws();
  bool consume(char c);
  void expect(char c);
  Value parse_value(int depth);
  Object parse_object(int depth);
  Array parse_array(int depth);
  std::string parse_string();
  char32_t parse_escaped_code_point();
  unsigned parse_hex4();
  Value::Number parse_number();

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace speccal::util
