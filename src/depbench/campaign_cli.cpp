#include "depbench/campaign_cli.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "depbench/campaign_report.h"
#include "trace/activation.h"
#include "util/flags.h"
#include "util/log.h"

namespace gf::depbench {

namespace {

using Flags = CampaignFlags;
using Value = const std::string&;

// Value setters: each returns "" or what the flag expects. Numbers go
// through util/flags.h, the parser every front-end shares.
using util::parse_int;
using util::parse_real;

std::string set_path(Value text, std::string& out) {
  if (text.empty()) return "expects a non-empty path";
  out = text;
  return {};
}

struct FlagDef {
  FlagDef(const char* n, void (*s)(Flags&), unsigned nd = 0)
      : name(n), needs(nd), on(s) {}
  FlagDef(const char* n, const char* m, std::string (*s)(Flags&, Value),
          unsigned nd = 0)
      : name(n), meta(m), needs(nd), set(s) {}
  const char* name;            ///< without the leading "--"
  const char* meta = nullptr;  ///< value placeholder in the usage line
  unsigned needs = 0;  ///< Need bits without which the flag changes nothing
  void (*on)(Flags&) = nullptr;                 ///< a switch
  std::string (*set)(Flags&, Value) = nullptr;  ///< a flag with a value
};

// The campaign flag table: every campaign flag that is not an artifact. The
// artifact flags are the rows of campaign_artifacts().
const FlagDef kFlags[] = {
    {"quick",
     [](Flags& f) {
       f.opt.stride = 16;
       f.opt.iterations = 2;
     }},
    {"full",
     [](Flags& f) {
       f.opt.stride = 1;
       f.opt.iterations = 3;
     }},
    {"scale", "S",
     [](Flags& f, Value v) {
       return parse_real(v, false, f.opt.time_scale);
     }},
    {"stride", "K",
     [](Flags& f, Value v) { return parse_int(v, 1, f.opt.stride); }},
    {"iterations", "N",
     [](Flags& f, Value v) { return parse_int(v, 0, f.opt.iterations); }},
    {"seed", "X",
     [](Flags& f, Value v) { return parse_int(v, 0, f.opt.seed); }},
    {"baseline-ms", "MS",
     [](Flags& f, Value v) {
       return parse_real(v, true, f.opt.baseline_window_ms);
     }},
    {"jobs", "J",
     [](Flags& f, Value v) { return parse_int(v, 0, f.opt.jobs); }},
    {"chunk", "N",
     [](Flags& f, Value v) { return parse_int(v, 0, f.opt.chunk); }},
    {"no-fusion", [](Flags& f) { f.opt.fusion = false; }},
    {"progress", [](Flags& f) { f.progress = true; }},
    {"profile-stride", "N",
     [](Flags& f, Value v) { return parse_int(v, 1, f.opt.profile_stride); },
     kNeedProfile},
    {"activation-report", [](Flags& f) { f.activation_report = true; }},
    {"store", "DIR",
     [](Flags& f, Value v) { return set_path(v, f.store_dir); }},
    {"resume", [](Flags& f) { f.resume = true; }, kNeedStore},
    {"no-cache", [](Flags& f) { f.opt.store_read = false; }, kNeedStore},
    {"crash-after-puts", "N",
     [](Flags& f, Value v) { return parse_int(v, 0, f.crash_after_puts); },
     kNeedStore},
};

const CampaignArtifact* find_artifact(Value name) {
  for (const auto& a : campaign_artifacts()) {
    if (name == a.flag) return &a;
  }
  return nullptr;
}

// The flags that make a campaign collect `need`, for a diagnostic.
std::string providers(unsigned need) {
  if (need & kNeedStore) return "--store DIR";
  std::string out;
  for (const auto& a : campaign_artifacts()) {
    if (a.need & need) {
      out += (out.empty() ? "--" : " or --") + std::string(a.flag);
    }
  }
  return out;
}

bool is_flag(Value arg) {
  return arg.size() > 2 && arg.compare(0, 2, "--") == 0;
}

}  // namespace

std::string parse_campaign_flags(const std::vector<std::string>& args,
                                 CampaignFlags& flags,
                                 const std::vector<std::string>& extra_flags) {
  std::vector<std::pair<std::string, unsigned>> needs;  // per flag given
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& arg = args[i];
    if (!is_flag(arg)) return "unexpected argument '" + arg + "'";
    const auto name = arg.substr(2);
    const auto def =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const FlagDef& d) { return name == d.name; });
    const auto* artifact = find_artifact(name);
    const bool known = def != std::end(kFlags) || artifact != nullptr;
    const bool extra = !known && std::find(extra_flags.begin(),
                                           extra_flags.end(),
                                           name) != extra_flags.end();
    if (!known && !extra) return "unknown flag " + arg;
    if (known) {
      needs.emplace_back(arg, artifact != nullptr ? artifact->need : def->needs);
    }
    if (artifact == nullptr && !extra && def->on != nullptr) {
      def->on(flags);
      continue;
    }
    if (i + 1 == args.size() || is_flag(args[i + 1])) {
      return arg + ": missing value";
    }
    const auto& value = args[++i];
    std::string err;
    if (extra) {
      flags.extra[name] = value;
    } else if (artifact != nullptr) {
      err = set_path(value, flags.artifacts[name]);
    } else {
      err = def->set(flags, value);
    }
    if (!err.empty()) return arg + ": " + err + ", got '" + value + "'";
  }
  // What the campaign collects follows from the artifacts requested; only
  // --store provides a store. A flag that needs something nothing collects
  // would change nothing, so it is refused.
  unsigned collect = flags.activation_report ? kNeedTrace : 0u;
  for (const auto& a : campaign_artifacts()) {
    if (flags.artifacts.count(a.flag) != 0) collect |= a.need & ~kNeedStore;
  }
  if (!flags.store_dir.empty()) collect |= kNeedStore;
  for (const auto& [arg, need] : needs) {
    if (need & ~collect) {
      return arg + ": requires " + providers(need & ~collect);
    }
  }
  auto& opt = flags.opt;
  opt.obs = collect & kNeedObs;
  opt.trace = collect & kNeedTrace;
  opt.profile = collect & kNeedProfile;
  return {};
}

void parse_campaign_flags_or_exit(int argc, char** argv, CampaignFlags& flags) {
  const auto err = parse_campaign_flags({argv + 1, argv + argc}, flags);
  if (err.empty()) return;
  std::fprintf(stderr, "error: %s\nusage: %s %s\n", err.c_str(), argv[0],
               campaign_flags_usage("    ").c_str());
  std::exit(2);
}

std::string campaign_flags_usage(const std::string& indent) {
  std::string out, line;
  auto add = [&](const char* name, const char* meta) {
    std::string item = std::string("[--") + name;
    if (meta != nullptr) item += std::string(" ") + meta;
    item += "]";
    if (!line.empty() && line.size() + 1 + item.size() > 64) {
      out += line + "\n" + indent;
      line.clear();
    }
    line += (line.empty() ? "" : " ") + item;
  };
  for (const auto& d : kFlags) add(d.name, d.meta);
  for (const auto& a : campaign_artifacts()) add(a.flag, "FILE");
  return out + line;
}

bool CampaignSession::run() {
  // --resume insists the store exists: a typo'd directory fails loudly
  // instead of silently running the campaign cold.
  if (flags_.resume && !std::ifstream(flags_.store_dir + "/wal.gfj")) {
    std::fprintf(stderr, "--resume: no store at %s\n",
                 flags_.store_dir.c_str());
    return false;
  }
  // Long campaigns narrate progress: one log line per completed cell, or
  // with --progress a rate-limited live reporter instead.
  if (util::log_level() > util::LogLevel::kInfo) {
    util::set_log_level(util::LogLevel::kInfo);
  }
  auto opt = flags_.opt;
  std::fprintf(stderr,
               "[campaign] %zu server(s) x %zu OS version(s), stride %d, %d "
               "iterations, jobs=%s, %s%s%s\n",
               opt.servers.size(), opt.versions.size(), opt.stride,
               opt.iterations,
               opt.jobs > 0 ? std::to_string(opt.jobs).c_str() : "auto",
               opt.steal ? "work stealing" : "static partition",
               opt.trace ? ", tracing on" : "",
               opt.warm_boot ? ", warm boot" : ", cold boot");
  if (!flags_.store_dir.empty()) {
    store_ = std::make_unique<store::CampaignStore>(flags_.store_dir);
    opt.store = store_.get();
    if (flags_.crash_after_puts > 0) {
      const auto n = flags_.crash_after_puts;
      store_->set_commit_hook([n](std::uint64_t count) {
        if (count >= n) std::raise(SIGKILL);
      });
    }
  }
  if (flags_.progress) opt.progress = &progress_;
  runner_ = std::make_unique<CampaignRunner>(opt);
  cells_ = runner_->run_campaign();
  return true;
}

bool CampaignSession::write_artifacts() const {
  const CampaignResults results{cells_, runner_->options(),
                                runner_->campaign_obs(),
                                runner_->scheduler_stats(),
                                runner_->store_stats()};
  if (flags_.activation_report) {
    std::printf("\nActivation & error propagation (per traced exposure)\n%s\n",
                trace::render_activation_report(
                    campaign_activation_stats(cells_))
                    .c_str());
  }
  for (const auto& artifact : campaign_artifacts()) {
    const auto path = flags_.artifacts.find(artifact.flag);
    if (path == flags_.artifacts.end() || !renders(artifact, results)) {
      continue;
    }
    std::ofstream out(path->second);
    if (out) out << artifact.render(results);
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", path->second.c_str());
      return false;
    }
    std::fprintf(stderr, "[campaign] %s -> %s\n", artifact.what,
                 path->second.c_str());
  }
  return true;
}

}  // namespace gf::depbench
