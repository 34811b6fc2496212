// Minimal JSON emission shared by every JSON-producing path in the tree
// (util::write_bench_json, obs exporters), so the number format and
// string escaping stay identical and diffable.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace cyclops::util {

/// printf format for JSON numbers: round-trips every double exactly.
inline constexpr const char* kJsonNumberFormat = "%.17g";

/// `v` rendered with kJsonNumberFormat.
std::string json_number(double v);

/// Appends `s` with JSON string escaping (quote, backslash, control
/// characters as \u00XX) — no surrounding quotes.
void append_json_escaped(std::string& out, std::string_view s);

/// Builds one flat JSON object into a string:
///   JsonWriter w; w.begin(); w.field("a", 1.5); w.end(); w.str();
/// Fields appear in call order; string values are escaped; raw_field
/// splices pre-rendered JSON (arrays, nested objects) verbatim.
class JsonWriter {
 public:
  void begin() {
    out_.push_back('{');
    first_ = true;
  }
  void end() { out_.push_back('}'); }

  void field(std::string_view name, double value);
  void field(std::string_view name, std::int64_t value);
  void field(std::string_view name, std::uint64_t value);
  void field(std::string_view name, std::string_view value);
  void raw_field(std::string_view name, std::string_view json);

  const std::string& str() const noexcept { return out_; }
  void clear() {
    out_.clear();
    first_ = true;
  }

 private:
  void key(std::string_view name);

  std::string out_;
  bool first_ = true;
};

}  // namespace cyclops::util
