#include "util/json_writer.hpp"

#include <cstdio>

namespace cyclops::util {

std::string json_number(double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), kJsonNumberFormat, v);
  return buffer;
}

void append_json_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buffer[8];
          std::snprintf(buffer, sizeof(buffer), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buffer;
        } else {
          out.push_back(c);
        }
    }
  }
}

void JsonWriter::key(std::string_view name) {
  if (!first_) out_.push_back(',');
  first_ = false;
  out_.push_back('"');
  append_json_escaped(out_, name);
  out_ += "\":";
}

void JsonWriter::field(std::string_view name, double value) {
  key(name);
  out_ += json_number(value);
}

void JsonWriter::field(std::string_view name, std::uint64_t value) {
  key(name);
  out_ += std::to_string(value);
}

void JsonWriter::field(std::string_view name, std::string_view value) {
  key(name);
  out_.push_back('"');
  append_json_escaped(out_, value);
  out_.push_back('"');
}

void JsonWriter::raw_field(std::string_view name, std::string_view json) {
  key(name);
  out_ += json;
}

}  // namespace cyclops::util
