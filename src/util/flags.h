// Numeric command-line values: the one whole-string, exception-free parser
// every front-end uses, so a bad number fails the same way everywhere
// instead of reading as 0 or wrapping around.
#pragma once

#include <charconv>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>
#include <type_traits>

namespace gf::util {

/// Parses all of `text` as an integer >= `min` into `out`. Returns "" or
/// what the value should have been; unsigned targets reject a sign.
template <typename T>
std::string parse_int(std::string_view text, std::type_identity_t<T> min,
                      T& out) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || v < min) {
    return "expects an integer >= " + std::to_string(min);
  }
  out = v;
  return {};
}

/// Same for a finite number >= 0 (> 0 unless `allow_zero`).
std::string parse_real(std::string_view text, bool allow_zero, double& out);

/// Unless `why` (a parse result) is empty, prints "error: <flag>: <why>,
/// got '<value>'" to stderr and exits with status 2.
void check_flag(const char* flag, const std::string& value,
                const std::string& why);

/// One flag of a front-end whose flags all take a value: `set` parses the
/// value (e.g. with parse_int) and returns "" or what it expects.
struct ValueFlag {
  const char* name;  ///< with the leading "--"
  std::function<std::string(std::string_view)> set;
};

/// Parses argv[1..] as "--flag value" pairs. A bad value fails through
/// check_flag; an unknown flag or a missing value prints
/// "usage: <argv[0]> <synopsis>" and exits with status 2.
void parse_value_flags(int argc, char** argv,
                       std::initializer_list<ValueFlag> flags,
                       const char* synopsis);

}  // namespace gf::util
