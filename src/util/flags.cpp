#include "util/flags.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace gf::util {

namespace {

bool is_flag(const std::string& arg) {
  return arg.size() > 2 && arg.compare(0, 2, "--") == 0;
}

}  // namespace

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

Flag::Flag(std::string flag_name, std::function<void()> on)
    : name(std::move(flag_name)),
      set([on = std::move(on)](const std::string&) {
        on();
        return std::string();
      }) {}

Flag::Flag(std::string flag_name, const char* placeholder, Setter setter,
           bool is_required)
    : name(std::move(flag_name)),
      meta(placeholder),
      set(std::move(setter)),
      required(is_required) {}

std::string parse_flags(const std::vector<std::string>& args,
                        const std::vector<Flag>& flags,
                        std::vector<std::string>* positional) {
  std::vector<bool> given(flags.size(), false);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& arg = args[i];
    if (!is_flag(arg)) {
      if (positional == nullptr) return "unexpected argument '" + arg + "'";
      positional->push_back(arg);
      continue;
    }
    const auto row =
        std::find_if(flags.begin(), flags.end(), [&](const Flag& f) {
          return arg.compare(2, arg.npos, f.name) == 0;
        });
    if (row == flags.end()) return "unknown flag " + arg;
    given[static_cast<std::size_t>(row - flags.begin())] = true;
    std::string value;
    if (row->meta != nullptr) {
      if (i + 1 == args.size() || is_flag(args[i + 1])) {
        return arg + ": missing value";
      }
      value = args[++i];
    }
    const auto why = row->set(value);
    if (!why.empty()) return arg + ": " + why + ", got '" + value + "'";
  }
  for (std::size_t i = 0; i < flags.size(); ++i) {
    if (flags[i].required && !given[i]) {
      return "--" + flags[i].name + ": required";
    }
  }
  return {};
}

std::string flags_usage(const std::vector<Flag>& flags,
                        const std::string& indent, std::size_t width) {
  std::string out, line;
  for (const auto& f : flags) {
    std::string item = "--" + f.name;
    if (f.meta != nullptr) item += std::string(" ") + f.meta;
    if (!f.required) item = "[" + item + "]";
    if (!line.empty() && line.size() + 1 + item.size() > width) {
      out += line + "\n" + indent;
      line.clear();
    }
    line += (line.empty() ? "" : " ") + item;
  }
  return out + line;
}

void exit_usage(const std::string& diagnostic, const std::string& usage) {
  std::fprintf(stderr, "error: %s\nusage: %s\n", diagnostic.c_str(),
               usage.c_str());
  std::exit(2);
}

void parse_flags_or_exit(int argc, char** argv,
                         const std::vector<Flag>& flags) {
  const auto err = parse_flags({argv + 1, argv + argc}, flags);
  if (!err.empty()) {
    exit_usage(err, std::string(argv[0]) + " " + flags_usage(flags, "    "));
  }
}

}  // namespace gf::util
