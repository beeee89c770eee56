// The command-line parser every front-end uses: a table of rows (flag name,
// value placeholder, setter), one parsing rule set, one diagnostic format
// and a usage text generated from the rows. Numeric values parse through
// one whole-string, exception-free definition, so a bad number fails the
// same way everywhere instead of reading as 0 or wrapping around.
#pragma once

#include <charconv>
#include <functional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace gf::util {

/// Parses all of `text`, decimal or 0x-prefixed hex (the spelling seed
/// repro lines print), as an integer >= `min` into `out`. Returns "" or
/// what the value should have been; unsigned targets reject a sign.
template <typename T>
std::string parse_int(std::string_view text, std::type_identity_t<T> min,
                      T& out) {
  const bool hex = text.size() > 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  if (hex) text.remove_prefix(2);
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v, hex ? 16 : 10);
  if (ec != std::errc{} || ptr != end || v < min || (hex && text[0] == '-')) {
    return "expects an integer >= " + std::to_string(min);
  }
  out = v;
  return {};
}

/// Same for a finite number >= 0 (> 0 unless `allow_zero`).
std::string parse_real(std::string_view text, bool allow_zero, double& out);

/// One row of a command line's flag table.
struct Flag {
  using Setter = std::function<std::string(const std::string&)>;

  /// A switch: takes no value.
  Flag(std::string flag_name, std::function<void()> on);
  /// A flag with a value; `placeholder` names it in the usage text. A
  /// required flag is shown without brackets and must be given.
  Flag(std::string flag_name, const char* placeholder, Setter setter,
       bool is_required = false);

  std::string name;            ///< without the leading "--"
  const char* meta = nullptr;  ///< value placeholder; nullptr for a switch
  /// Applies one occurrence (a switch gets ""); returns "" or what the
  /// flag expects.
  Setter set;
  bool required = false;
};

/// Parses `args` (no program name) against `flags`. Every occurrence of a
/// flag calls its setter, so a repeated flag accumulates or overrides as
/// its setter decides. A value that starts with "--" reads as a missing
/// value. Arguments that are not flags are collected into `positional`, or
/// refused when it is null. Returns "" or a one-line diagnostic:
/// "<flag>: <why>, got '<value>'", "<flag>: missing value",
/// "<flag>: required", "unknown flag <flag>" or "unexpected argument '<arg>'".
std::string parse_flags(const std::vector<std::string>& args,
                        const std::vector<Flag>& flags,
                        std::vector<std::string>* positional = nullptr);

/// "[--name META] [--switch] --required META ...", wrapped before column
/// `width` with `indent` starting every continuation line.
std::string flags_usage(const std::vector<Flag>& flags,
                        const std::string& indent, std::size_t width = 64);

/// Prints "error: <diagnostic>" and "usage: <usage>" to stderr and exits
/// with status 2.
[[noreturn]] void exit_usage(const std::string& diagnostic,
                             const std::string& usage);

/// parse_flags over argv[1..], refusing positional arguments; on error
/// exits through exit_usage with "<argv[0]> <flags usage>".
void parse_flags_or_exit(int argc, char** argv,
                         const std::vector<Flag>& flags);

}  // namespace gf::util
