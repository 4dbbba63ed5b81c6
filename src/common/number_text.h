// Copyright 2026 The vaolib Authors.
// Locale-independent number text for the wire protocol, the SQL printer
// and scenario files: the shortest decimal that parses back to the same
// double.

#ifndef VAOLIB_COMMON_NUMBER_TEXT_H_
#define VAOLIB_COMMON_NUMBER_TEXT_H_

#include <string>

namespace vaolib {

/// \brief Appends to \p out the text of printf("%.*g") at the smallest
/// precision in 1..17 whose text parses back to exactly \p value (100
/// gives "1e+02", -0.0 gives "-0", infinities "inf"/"-inf"). NaN never
/// parses back equal, so it gets std::to_string's text ("nan"/"-nan").
/// Built on std::to_chars/std::from_chars: no locale, no stream and no
/// allocation beyond \p out's growth.
void AppendRoundTripNumber(double value, std::string* out);

/// \brief AppendRoundTripNumber() into a fresh string.
std::string RoundTripNumber(double value);

}  // namespace vaolib

#endif  // VAOLIB_COMMON_NUMBER_TEXT_H_
