#include "util/args.hpp"

#include <algorithm>
#include <iostream>

namespace speccal::util {

Args::Args(int argc, char** argv)
    : argv_(argv, argv + argc), read_(argv_.size(), false) {}

std::optional<std::string> Args::text(std::string_view name) {
  if (!name.starts_with("--")) {
    for (; next_positional_ < argv_.size(); ++next_positional_) {
      const std::string_view arg = argv_[next_positional_];
      if (arg.starts_with("--")) continue;
      read_[next_positional_++] = true;
      return std::string(arg);
    }
    return std::nullopt;
  }
  std::optional<std::string> value;
  for (std::size_t i = 1; i < argv_.size(); ++i) {
    const std::string_view arg = argv_[i];
    if (arg == name)
      throw std::invalid_argument(std::string(name) + " needs a value (" +
                                  std::string(name) + "=...)");
    if (!arg.starts_with(name) || arg[name.size()] != '=') continue;
    if (value)
      throw std::invalid_argument(std::string(name) + " is given twice");
    value = std::string(arg.substr(name.size() + 1));
    read_[i] = true;
  }
  return value;
}

double Args::number(std::string_view name, double fallback) {
  const auto value = text(name);
  return value ? JsonReader::number(*value, name) : fallback;
}

void Args::finish() const {
  for (std::size_t i = 1; i < argv_.size(); ++i) {
    if (read_[i]) continue;
    const std::string arg = argv_[i];
    throw std::invalid_argument(arg.starts_with("--")
                                    ? "unknown flag " + arg
                                    : "unexpected argument '" + arg + "'");
  }
}

std::vector<char*> Args::rest() {
  std::vector<char*> out(argv_.begin(),
                         argv_.begin() + std::min<std::size_t>(argv_.size(), 1));
  for (std::size_t i = 1; i < argv_.size(); ++i)
    if (!read_[i]) {
      out.push_back(argv_[i]);
      read_[i] = true;
    }
  return out;
}

int usage_error(std::string_view binary, std::string_view reason,
                std::string_view synopsis) {
  std::cerr << binary << ": " << reason << "\nusage: " << binary << ' '
            << synopsis << "\n";
  return 2;
}

}  // namespace speccal::util
