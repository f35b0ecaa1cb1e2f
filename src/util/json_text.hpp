#pragma once
// Fixed JSON text formats shared by every artifact emitter (sweep/emit.cpp,
// dse/frontier.cpp). The emitters are golden-file- and byte-diff-tested, so
// the text must never depend on locale or platform printf quirks.

#include <cmath>
#include <cstdio>
#include <string>

namespace h3dfact::util {

/// %g keeps integers clean ("40", not "40.000000") while preserving enough
/// digits for human-scale statistics.
inline std::string fmt_g(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

/// Exact round-trip text for anything read back or compared numerically:
/// integral doubles below 2^53 (iteration counts in practice) print without
/// exponent truncation, anything else at full precision.
inline std::string fmt_exact(double v) {
  char buf[64];
  if (std::nearbyint(v) == v && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof buf, "%.0f", v);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", v);
  }
  return buf;
}

/// `s` as a JSON string literal; control characters escape as \uXXXX.
inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  out += '"';
  return out;
}

}  // namespace h3dfact::util
