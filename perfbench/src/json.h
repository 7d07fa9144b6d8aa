// Minimal JSON emission for the helper's one-object result lines.

#pragma once

#include <cmath>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

namespace vqbench {

[[nodiscard]] inline std::string json_string(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Full precision; non-finite values become null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

template <typename T>
[[nodiscard]] std::string json_array(const std::vector<T>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ',';
    out += json_number(static_cast<double>(values[i]));
  }
  return out + "]";
}

/// Builds one JSON object, fields in insertion order.
class JsonObject {
 public:
  JsonObject& num(std::string_view key, double v) {
    return raw(key, json_number(v));
  }
  JsonObject& str(std::string_view key, std::string_view v) {
    return raw(key, json_string(v));
  }
  JsonObject& raw(std::string_view key, std::string_view json) {
    body_ += body_.empty() ? "{" : ",";
    body_ += json_string(key);
    body_ += ':';
    body_ += json;
    return *this;
  }
  [[nodiscard]] std::string dump() const {
    return body_.empty() ? "{}" : body_ + "}";
  }

 private:
  std::string body_;
};

}  // namespace vqbench
