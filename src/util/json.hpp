// Minimal streaming JSON writer for exporting calibration reports.
//
// Reports, metrics and traces go to downstream tooling (plotting,
// dashboards). Reading JSON is util::JsonReader's job (util/json_reader.hpp),
// the one parser in the repository; tests pin each of the two against
// literal documents, not only against each other.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace speccal::util {

/// Streaming JSON writer with nesting validation.
///
/// Usage:
///   JsonWriter w(os);
///   w.begin_object();
///   w.key("node"); w.value("rooftop");
///   w.key("rsrp_dbm"); w.value(-61.2);
///   w.end_object();
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& os) : os_(os) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Emit a key inside an object; must be followed by a value or container.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(double number);
  void value(std::int64_t number);
  void value(int number) { value(static_cast<std::int64_t>(number)); }
  void value(std::size_t number) { value(static_cast<std::int64_t>(number)); }
  void value(bool flag);
  void null();

  /// True when all containers are closed.
  [[nodiscard]] bool complete() const noexcept { return stack_.empty() && emitted_; }

 private:
  enum class Scope { kObject, kArray };

  void before_value();
  void write_escaped(std::string_view text);

  std::ostream& os_;
  std::vector<Scope> stack_;
  std::vector<bool> first_in_scope_;
  bool pending_key_ = false;
  bool emitted_ = false;
};

}  // namespace speccal::util
