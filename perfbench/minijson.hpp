// Just enough JSON reading to take apart the Chrome trace that
// obs::TraceSession exports (the session has no in-memory accessor).
// Strict: anything malformed, and nesting deeper than 64, is refused.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench::json {

struct Value {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> items;                            // kArray
  std::vector<std::pair<std::string, Value>> members;  // kObject, in order

  /// Member `key` of an object, or nullptr.
  [[nodiscard]] const Value* find(std::string_view key) const;
};

[[nodiscard]] std::optional<Value> parse(std::string_view text);

}  // namespace perfbench::json
