// Strict command-line reader: the repository's one argv parser.
//
// A command line is `--name=value` flags, in any order, and positionals,
// read in order; an argument that starts with "--" is a flag. Each accessor
// names what it reads: a name that starts with "--" reads that flag, any
// other name reads the next positional. Numbers follow util::JsonReader's
// rule (integer<T> converts exactly from the text, so "2.7" or "-1" for an
// unsigned count is an error, never a cast) and words come from a listed
// set. Every error is a std::invalid_argument naming the argument: bad
// text, a flag given twice or without a value, and, from finish(), the
// first argument nothing read (an unknown flag or an extra positional).
// usage_error() turns one into the binaries' one usage failure.
#pragma once

#include <concepts>
#include <initializer_list>
#include <limits>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/json_reader.hpp"

namespace speccal::util {

class Args {
 public:
  /// The command line as main() receives it; argv[0] is never read.
  Args(int argc, char** argv);

  /// The text of argument `name`, or nullopt when it is absent.
  [[nodiscard]] std::optional<std::string> text(std::string_view name);

  /// The JSON integer `name`, or `fallback` when it is absent. A value
  /// below `min` or above `max` is an error.
  template <std::integral T>
  [[nodiscard]] T integer(
      std::string_view name, T fallback,
      std::type_identity_t<T> min = std::numeric_limits<T>::lowest(),
      std::type_identity_t<T> max = std::numeric_limits<T>::max()) {
    const auto value = text(name);
    if (!value) return fallback;
    const T v = JsonReader::integer<T>(*value, name);
    if (v < min)
      throw std::invalid_argument(std::string(name) + " = " + *value +
                                  " must be at least " + std::to_string(min));
    if (v > max)
      throw std::invalid_argument(std::string(name) + " = " + *value +
                                  " must be at most " + std::to_string(max));
    return v;
  }

  /// The JSON number `name`, or `fallback` when it is absent.
  [[nodiscard]] double number(std::string_view name, double fallback);

  /// The value paired with the word given as `name`, or `fallback` when it
  /// is absent. A word outside the list is an error that lists them.
  template <typename T>
  [[nodiscard]] T word(
      std::string_view name, T fallback,
      std::initializer_list<std::pair<std::string_view, std::type_identity_t<T>>>
          words) {
    const auto value = text(name);
    if (!value) return fallback;
    std::string names;
    for (const auto& [w, v] : words) {
      if (*value == w) return v;
      names += (names.empty() ? "" : "|") + std::string(w);
    }
    throw std::invalid_argument(std::string(name) + ": unknown value '" +
                                *value + "' (" + names + ")");
  }

  /// Throws naming the first argument nothing has read.
  void finish() const;

  /// argv[0] and every argument nothing has read, in order, all marked
  /// read: the command line a second parser (google-benchmark) takes over.
  [[nodiscard]] std::vector<char*> rest();

 private:
  std::vector<char*> argv_;
  std::vector<bool> read_;             // per argv_ entry
  std::size_t next_positional_ = 1;    // argv_ index the next search starts at
};

/// Prints "<binary>: <reason>" and "usage: <binary> <synopsis>" to stderr
/// and returns 2, the exit status of every usage error.
[[nodiscard]] int usage_error(std::string_view binary, std::string_view reason,
                              std::string_view synopsis);

}  // namespace speccal::util
