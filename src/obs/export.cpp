#include "obs/export.hpp"

#include <vector>

#include "util/json_writer.hpp"

namespace cyclops::obs {
namespace {

void append_prom_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out.push_back(c);
    }
  }
}

/// `{a="x",b="y"}` (empty string for no labels); `extra` appended last so
/// `le` lands in the conventional final position on bucket lines.
std::string prom_labels(const Labels& labels, const std::string& extra_key = "",
                        const std::string& extra_value = "") {
  if (labels.empty() && extra_key.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out += key;
    out += "=\"";
    append_prom_escaped(out, value);
    out.push_back('"');
  }
  if (!extra_key.empty()) {
    if (!first) out.push_back(',');
    out += extra_key;
    out += "=\"";
    append_prom_escaped(out, extra_value);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

std::string json_labels(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out.push_back(',');
    first = false;
    out.push_back('"');
    util::append_json_escaped(out, key);
    out += "\":\"";
    util::append_json_escaped(out, value);
    out.push_back('"');
  }
  out.push_back('}');
  return out;
}

std::string json_number_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += util::json_number(values[i]);
  }
  out.push_back(']');
  return out;
}

std::string json_uint_array(const std::vector<std::uint64_t>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out.push_back(',');
    out += std::to_string(values[i]);
  }
  out.push_back(']');
  return out;
}

}  // namespace

std::string to_prometheus(const Registry& registry) {
  std::string out;
  // Snapshots are sorted by (name, labels), so label variants of one
  // family are consecutive; emit the # TYPE header once per family.
  const std::string* last_family = nullptr;
  const auto family_header = [&](const std::string& name, const char* kind) {
    if (last_family != nullptr && *last_family == name) return;
    out += "# TYPE " + name + " " + kind + "\n";
    last_family = &name;
  };
  for (const auto& [key, metric] : registry.counters()) {
    family_header(key.name, "counter");
    out += key.name + prom_labels(key.labels) + " " +
           std::to_string(metric->value()) + "\n";
  }
  last_family = nullptr;
  for (const auto& [key, metric] : registry.gauges()) {
    family_header(key.name, "gauge");
    out += key.name + prom_labels(key.labels) + " " +
           util::json_number(metric->value()) + "\n";
  }
  last_family = nullptr;
  for (const auto& [key, metric] : registry.histograms()) {
    family_header(key.name, "histogram");
    const auto& bounds = metric->spec().bounds;
    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < bounds.size(); ++i) {
      cumulative += metric->bucket(i);
      out += key.name + "_bucket" +
             prom_labels(key.labels, "le", util::json_number(bounds[i])) + " " +
             std::to_string(cumulative) + "\n";
    }
    cumulative += metric->bucket(bounds.size());
    out += key.name + "_bucket" + prom_labels(key.labels, "le", "+Inf") + " " +
           std::to_string(cumulative) + "\n";
    out += key.name + "_sum" + prom_labels(key.labels) + " " +
           util::json_number(metric->approx_sum()) + "\n";
    out += key.name + "_count" + prom_labels(key.labels) + " " +
           std::to_string(metric->count()) + "\n";
  }
  return out;
}

std::string to_jsonl(const Registry& registry) {
  std::string out;
  util::JsonWriter w;
  for (const auto& [key, metric] : registry.counters()) {
    w.clear();
    w.begin();
    w.field("kind", std::string_view("counter"));
    w.field("name", std::string_view(key.name));
    w.raw_field("labels", json_labels(key.labels));
    w.field("value", metric->value());
    w.end();
    out += w.str();
    out.push_back('\n');
  }
  for (const auto& [key, metric] : registry.gauges()) {
    w.clear();
    w.begin();
    w.field("kind", std::string_view("gauge"));
    w.field("name", std::string_view(key.name));
    w.raw_field("labels", json_labels(key.labels));
    w.field("value", metric->value());
    w.end();
    out += w.str();
    out.push_back('\n');
  }
  for (const auto& [key, metric] : registry.histograms()) {
    w.clear();
    w.begin();
    w.field("kind", std::string_view("histogram"));
    w.field("name", std::string_view(key.name));
    w.raw_field("labels", json_labels(key.labels));
    w.raw_field("bounds", json_number_array(metric->spec().bounds));
    std::vector<std::uint64_t> buckets(metric->bucket_count());
    for (std::size_t i = 0; i < buckets.size(); ++i) buckets[i] = metric->bucket(i);
    w.raw_field("buckets", json_uint_array(buckets));
    w.field("count", metric->count());
    if (metric->count() != 0) {
      // min/max are omitted when empty: ±inf has no JSON literal.
      w.field("min", metric->min());
      w.field("max", metric->max());
    }
    w.end();
    out += w.str();
    out.push_back('\n');
  }
  return out;
}

}  // namespace cyclops::obs
