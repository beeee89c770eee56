#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace gf::util {

std::string parse_real(std::string_view text, bool allow_zero, double& out) {
  double v = 0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || ptr != end || !std::isfinite(v) || v < 0 ||
      (v == 0 && !allow_zero)) {
    return allow_zero ? "expects a number >= 0" : "expects a number > 0";
  }
  out = v;
  return {};
}

void check_flag(const char* flag, const std::string& value,
                const std::string& why) {
  if (why.empty()) return;
  std::fprintf(stderr, "error: %s: %s, got '%s'\n", flag, why.c_str(),
               value.c_str());
  std::exit(2);
}

void parse_value_flags(int argc, char** argv,
                       std::initializer_list<ValueFlag> flags,
                       const char* synopsis) {
  for (int i = 1; i < argc; i += 2) {
    const auto* flag =
        std::find_if(flags.begin(), flags.end(), [&](const ValueFlag& f) {
          return std::string_view(argv[i]) == f.name;
        });
    if (flag == flags.end() || i + 1 == argc) {
      std::fprintf(stderr, "usage: %s %s\n", argv[0], synopsis);
      std::exit(2);
    }
    check_flag(flag->name, argv[i + 1], flag->set(argv[i + 1]));
  }
}

}  // namespace gf::util
