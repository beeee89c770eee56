#include "depbench/campaign_cli.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "depbench/campaign_report.h"
#include "depbench/report.h"
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
  FlagDef(const char* n, void (*s)(Flags&)) : name(n), on(s) {}
  FlagDef(const char* n, const char* m, std::string (*s)(Flags&, Value))
      : name(n), meta(m), set(s) {}
  const char* name;            ///< without the leading "--"
  const char* meta = nullptr;  ///< value placeholder in the usage line
  void (*on)(Flags&) = nullptr;                 ///< a switch
  std::string (*set)(Flags&, Value) = nullptr;  ///< a flag with a value
};

// The campaign flag table: the one definition of every campaign flag.
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
    {"no-steal", [](Flags& f) { f.opt.steal = false; }},
    {"cold-boot", [](Flags& f) { f.opt.warm_boot = false; }},
    {"no-fusion", [](Flags& f) { f.opt.fusion = false; }},
    {"progress", [](Flags& f) { f.progress = true; }},
    {"metrics-json", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.metrics_json); }},
    {"html-report", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.html_report); }},
    {"journal-out", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.journal_out); }},
    {"chrome-trace", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.chrome_trace); }},
    {"profile-json", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.profile_json); }},
    {"flame-out", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.flame_out); }},
    {"profile-stride", "N",
     [](Flags& f, Value v) { return parse_int(v, 1, f.opt.profile_stride); }},
    {"sched-json", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.sched_json); }},
    {"activation-report", [](Flags& f) { f.activation_report = true; }},
    {"trace-out", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.trace_out); }},
    {"activation-json", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.activation_json); }},
    {"store", "DIR",
     [](Flags& f, Value v) { return set_path(v, f.store_dir); }},
    {"resume", [](Flags& f) { f.resume = true; }},
    {"no-cache", [](Flags& f) { f.opt.store_read = false; }},
    {"store-json", "FILE",
     [](Flags& f, Value v) { return set_path(v, f.store_json); }},
    {"crash-after-puts", "N",
     [](Flags& f, Value v) { return parse_int(v, 0, f.crash_after_puts); }},
};

bool is_flag(Value arg) {
  return arg.size() > 2 && arg.compare(0, 2, "--") == 0;
}

}  // namespace

std::string parse_campaign_flags(const std::vector<std::string>& args,
                                 CampaignFlags& flags,
                                 const std::vector<std::string>& extra_flags) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const auto& arg = args[i];
    if (!is_flag(arg)) return "unexpected argument '" + arg + "'";
    const auto name = arg.substr(2);
    const auto def =
        std::find_if(std::begin(kFlags), std::end(kFlags),
                     [&](const FlagDef& d) { return name == d.name; });
    const bool extra = def == std::end(kFlags) &&
                       std::find(extra_flags.begin(), extra_flags.end(),
                                 name) != extra_flags.end();
    if (def == std::end(kFlags) && !extra) return "unknown flag " + arg;
    if (!extra && def->on != nullptr) {
      def->on(flags);
      continue;
    }
    if (i + 1 == args.size() || is_flag(args[i + 1])) {
      return arg + ": missing value";
    }
    const auto& value = args[++i];
    if (extra) {
      flags.extra[name] = value;
      continue;
    }
    const auto err = def->set(flags, value);
    if (!err.empty()) return arg + ": " + err + ", got '" + value + "'";
  }
  if (flags.resume && flags.store_dir.empty()) {
    return "--resume requires --store DIR";
  }
  auto& opt = flags.opt;
  opt.trace = flags.activation_report || !flags.trace_out.empty() ||
              !flags.activation_json.empty();
  opt.profile = !flags.profile_json.empty() || !flags.flame_out.empty();
  // Every artifact rendered from per-task TaskObs bundles needs them.
  opt.obs = opt.profile || !flags.metrics_json.empty() ||
            !flags.html_report.empty() || !flags.journal_out.empty() ||
            !flags.chrome_trace.empty();
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
  for (const auto& d : kFlags) {
    std::string item = std::string("[--") + d.name;
    if (d.meta != nullptr) item += std::string(" ") + d.meta;
    item += "]";
    if (!line.empty() && line.size() + 1 + item.size() > 64) {
      out += line + "\n" + indent;
      line.clear();
    }
    line += (line.empty() ? "" : " ") + item;
  }
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
  bool ok = true;
  auto write = [&ok](const std::string& path, const char* what,
                     const auto& render) {
    if (!ok || path.empty()) return;
    std::ofstream out(path);
    if (out) render(out);
    if (!out.flush()) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      ok = false;
      return;
    }
    std::fprintf(stderr, "[campaign] %s -> %s\n", what, path.c_str());
  };
  const auto& opt = runner_->options();
  if (const auto* obs = runner_->campaign_obs()) {
    write(flags_.metrics_json, "campaign manifest", [&](std::ostream& o) {
      o << campaign_manifest_json(cells_, opt, obs);
    });
    write(flags_.html_report, "html report", [&](std::ostream& o) {
      o << campaign_html_report(cells_, opt, obs);
    });
    write(flags_.journal_out, "event journal",
          [&](std::ostream& o) { write_campaign_journal(o, *obs); });
    write(flags_.chrome_trace, "chrome trace",
          [&](std::ostream& o) { o << campaign_chrome_trace(*obs); });
    write(flags_.profile_json, "cycle profile", [&](std::ostream& o) {
      o << campaign_profile_json(cells_, opt, *obs);
    });
    write(flags_.flame_out, "flamegraph",
          [&](std::ostream& o) { o << campaign_flamegraph(*obs); });
  }
  if (const auto* stats = runner_->store_stats()) {
    write(flags_.store_json, "store telemetry",
          [&](std::ostream& o) { o << stats->to_json(); });
  }
  if (const auto* stats = runner_->scheduler_stats()) {
    write(flags_.sched_json, "scheduler telemetry",
          [&](std::ostream& o) { o << stats->to_json(); });
  }
  if (!opt.trace) return ok;

  trace::ActivationStats stats;
  for (const auto& cell : cells_) {
    stats.merge(trace::aggregate(collect_activations(cell)));
  }
  if (flags_.activation_report) {
    std::printf("\nActivation & error propagation (per traced exposure)\n%s\n",
                trace::render_activation_report(stats).c_str());
  }
  write(flags_.trace_out, "activation event log", [&](std::ostream& o) {
    for (const auto& cell : cells_) {
      for (std::size_t it = 0; it < cell.iterations.size(); ++it) {
        trace::write_jsonl(o,
                           cell.os_name + "/" + cell.server_name + "/iter" +
                               std::to_string(it),
                           cell.iterations[it].activations);
      }
    }
  });
  write(flags_.activation_json, "activation summary", [&](std::ostream& o) {
    o << trace::activation_summary_json(stats);
  });
  return ok;
}

}  // namespace gf::depbench
