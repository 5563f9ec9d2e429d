// Strict whole-string integer parsing for command-line flags and
// environment variables.
//
// std::stoi / std::atoi stop at the first character that is not a digit, so
// "100k" reads as 100 and "abc" as 0.  parse_int accepts only a complete
// base-10 integer (an optional leading '-', no whitespace, no '+', no
// suffix) that lies in [lo, hi], and otherwise throws std::invalid_argument
// naming the flag or variable it was reading.
#pragma once

#include <charconv>
#include <concepts>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>

namespace cfmerge::gpusim {

template <std::integral T>
T parse_int(std::string_view text, std::string_view what,
            T lo = std::numeric_limits<T>::min(), T hi = std::numeric_limits<T>::max()) {
  T value{};
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  const auto fail = [&](const char* why) {
    throw std::invalid_argument(std::string(what) + ": " + why + ": '" + std::string(text) +
                                "'");
  };
  if (ec == std::errc::result_out_of_range) fail("out of range");
  if (ec != std::errc{} || ptr != end) fail("not an integer");
  if (value < lo || value > hi) fail("out of range");
  return value;
}

}  // namespace cfmerge::gpusim
