#include "depbench/campaign_cli.h"

#include <csignal>
#include <cstdio>
#include <fstream>

#include "depbench/campaign_report.h"
#include "trace/activation.h"
#include "util/flags.h"
#include "util/log.h"

namespace gf::depbench {

namespace {

using Flags = CampaignFlags;
using Value = const std::string&;
/// The flags given that need something collected, with their need bits.
using Given = std::vector<std::pair<std::string, unsigned>>;

// Value setters: each returns "" or what the flag expects. Numbers go
// through util/flags.h, the parser every front-end shares.
using util::parse_int;
using util::parse_real;

std::string set_path(Value text, std::string& out) {
  if (text.empty()) return "expects a non-empty path";
  out = text;
  return {};
}

// The campaign flag table: every campaign flag that is not an artifact,
// then one row per artifact of campaign_artifacts(). A row with need bits
// records itself in `given` when it is given, so the parser can refuse it
// when nothing collects what it needs.
std::vector<util::Flag> campaign_rows(Flags& f, Given& given) {
  auto needs = [&given](unsigned need, util::Flag row) {
    row.set = [&given, need, flag = "--" + row.name,
               set = std::move(row.set)](Value v) {
      given.emplace_back(flag, need);
      return set(v);
    };
    return row;
  };
  std::vector<util::Flag> rows = {
      {"quick",
       [&f] {
         f.opt.stride = 16;
         f.opt.iterations = 2;
       }},
      {"full",
       [&f] {
         f.opt.stride = 1;
         f.opt.iterations = 3;
       }},
      {"scale", "S",
       [&f](Value v) { return parse_real(v, false, f.opt.time_scale); }},
      {"stride", "K", [&f](Value v) { return parse_int(v, 1, f.opt.stride); }},
      {"iterations", "N",
       [&f](Value v) { return parse_int(v, 0, f.opt.iterations); }},
      {"seed", "X", [&f](Value v) { return parse_int(v, 0, f.opt.seed); }},
      {"baseline-ms", "MS",
       [&f](Value v) {
         return parse_real(v, true, f.opt.baseline_window_ms);
       }},
      {"jobs", "J", [&f](Value v) { return parse_int(v, 0, f.opt.jobs); }},
      {"chunk", "N", [&f](Value v) { return parse_int(v, 0, f.opt.chunk); }},
      {"no-fusion", [&f] { f.opt.fusion = false; }},
      {"progress", [&f] { f.progress = true; }},
      needs(kNeedProfile,
            {"profile-stride", "N",
             [&f](Value v) { return parse_int(v, 1, f.opt.profile_stride); }}),
      {"activation-report", [&f] { f.activation_report = true; }},
      {"store", "DIR", [&f](Value v) { return set_path(v, f.store_dir); }},
      needs(kNeedStore, {"resume", [&f] { f.resume = true; }}),
      needs(kNeedStore, {"no-cache", [&f] { f.opt.store_read = false; }}),
      needs(kNeedStore,
            {"crash-after-puts", "N",
             [&f](Value v) { return parse_int(v, 0, f.crash_after_puts); }}),
  };
  for (const auto& a : campaign_artifacts()) {
    rows.push_back(needs(a.need, {a.flag, "FILE",
                                  [&f, flag = std::string(a.flag)](Value v) {
                                    return set_path(v, f.artifacts[flag]);
                                  }}));
  }
  return rows;
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

}  // namespace

std::string parse_campaign_flags(const std::vector<std::string>& args,
                                 CampaignFlags& flags,
                                 std::vector<util::Flag> caller_flags) {
  Given given;
  auto rows = std::move(caller_flags);
  for (auto& row : campaign_rows(flags, given)) rows.push_back(std::move(row));
  if (auto err = util::parse_flags(args, rows); !err.empty()) return err;
  // What the campaign collects follows from the artifacts requested; only
  // --store provides a store. A flag that needs something nothing collects
  // would change nothing, so it is refused.
  unsigned collect = flags.activation_report ? kNeedTrace : 0u;
  for (const auto& a : campaign_artifacts()) {
    if (flags.artifacts.count(a.flag) != 0) collect |= a.need & ~kNeedStore;
  }
  if (!flags.store_dir.empty()) collect |= kNeedStore;
  for (const auto& [flag, need] : given) {
    if (need & ~collect) {
      return flag + ": requires " + providers(need & ~collect);
    }
  }
  auto& opt = flags.opt;
  opt.obs = collect & kNeedObs;
  opt.trace = collect & kNeedTrace;
  opt.profile = collect & kNeedProfile;
  return {};
}

std::string parse_campaign_flags(const std::vector<std::string>& args,
                                 CampaignFlags& flags,
                                 const std::vector<std::string>& extra_flags) {
  std::vector<util::Flag> rows;
  for (const auto& name : extra_flags) {
    rows.push_back({name, "VALUE", [&flags, name](Value v) {
                      flags.extra[name] = v;
                      return std::string();
                    }});
  }
  return parse_campaign_flags(args, flags, std::move(rows));
}

void parse_campaign_flags_or_exit(int argc, char** argv, CampaignFlags& flags) {
  const auto err = parse_campaign_flags({argv + 1, argv + argc}, flags);
  if (err.empty()) return;
  util::exit_usage(err,
                   std::string(argv[0]) + " " + campaign_flags_usage("    "));
}

std::string campaign_flags_usage(const std::string& indent) {
  CampaignFlags flags;
  Given given;
  return util::flags_usage(campaign_rows(flags, given), indent);
}

bool CampaignSession::run() {
  // --resume insists the store exists: a typo'd directory fails loudly
  // instead of silently running the campaign cold.
  if (flags_.resume && !store::CampaignStore::exists(flags_.store_dir)) {
    std::fprintf(stderr, "error: --resume: no store at %s\n",
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
               "iterations, jobs=%s, work stealing%s, warm boot\n",
               opt.servers.size(), opt.versions.size(), opt.stride,
               opt.iterations,
               opt.jobs > 0 ? std::to_string(opt.jobs).c_str() : "auto",
               opt.trace ? ", tracing on" : "");
  if (!flags_.store_dir.empty()) {
    try {
      store_ = std::make_unique<store::CampaignStore>(flags_.store_dir);
    } catch (const store::StoreError& e) {
      std::fprintf(stderr, "error: --store: %s\n", e.what());
      return false;
    }
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
