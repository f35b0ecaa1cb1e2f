#pragma once
// Minimal streaming JSON writer for the benchmark's raw record. Doubles are
// printed with %.17g so every measured digit reaches the report.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }

  JsonWriter& key(const std::string& k) {
    comma();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(const std::string& s) {
    comma();
    quote(s);
    return *this;
  }
  JsonWriter& value(const char* s) { return value(std::string(s)); }
  JsonWriter& value(bool b) {
    comma();
    out_ += b ? "true" : "false";
    return *this;
  }
  JsonWriter& value(double d) {
    comma();
    if (!std::isfinite(d)) {
      out_ += "null";
      return *this;
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint64_t n) {
    comma();
    out_ += std::to_string(n);
    return *this;
  }
  JsonWriter& value(std::int64_t n) {
    comma();
    out_ += std::to_string(n);
    return *this;
  }
  JsonWriter& value(int n) { return value(static_cast<std::int64_t>(n)); }
  JsonWriter& value(unsigned n) { return value(static_cast<std::uint64_t>(n)); }

  template <typename T>
  JsonWriter& field(const std::string& k, const T& v) {
    return key(k).value(v);
  }
  template <typename T>
  JsonWriter& array(const std::string& k, const std::vector<T>& values) {
    key(k).begin_array();
    for (const T& v : values) value(v);
    return end_array();
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char c) {
    comma();
    out_ += c;
    first_ = true;
    return *this;
  }
  JsonWriter& close(char c) {
    out_ += c;
    first_ = false;
    return *this;
  }
  void comma() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_) out_ += ',';
    first_ = false;
  }
  void quote(const std::string& s) {
    out_ += '"';
    for (char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  bool first_ = true;
  bool after_key_ = false;
};

}  // namespace perfbench
