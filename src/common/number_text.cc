#include "common/number_text.h"

#include <algorithm>
#include <charconv>
#include <cmath>

namespace vaolib {

void AppendRoundTripNumber(double value, std::string* out) {
  if (std::isnan(value)) {
    out->append(std::to_string(value));
    return;
  }
  // "-1.7976931348623157e+308" is the longest text either format writes.
  char text[32];
  // No text with fewer significant digits than the shortest round-trip
  // text parses back to value, so the search starts at its digit count.
  char* end = std::to_chars(text, text + sizeof text, value,
                            std::chars_format::scientific)
                  .ptr;
  int digits = 0;
  for (const char* c = text; c != end && *c != 'e'; ++c) {
    digits += *c >= '0' && *c <= '9';
  }
  // chars_format::general at a precision is printf("%.*g"), which is what
  // an ostream set to that precision prints. The first try nearly always
  // parses back. It can fail at a power of two, where the gap below the
  // value is half the gap above: the correctly rounded text at that digit
  // count may then fall outside while a farther one parses back.
  for (int precision = std::max(digits, 1); precision <= 17; ++precision) {
    end = std::to_chars(text, text + sizeof text, value,
                        std::chars_format::general, precision)
              .ptr;
    double parsed = 0.0;
    const std::from_chars_result back = std::from_chars(text, end, parsed);
    if (back.ec == std::errc() && back.ptr == end && parsed == value) {
      out->append(text, end);
      return;
    }
  }
  out->append(std::to_string(value));
}

std::string RoundTripNumber(double value) {
  std::string text;
  AppendRoundTripNumber(value, &text);
  return text;
}

}  // namespace vaolib
