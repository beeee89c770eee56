// gfbench — command-line front end to the genfault library: subcommands
// scan, profile, campaign, store, show and diff. Run without arguments for
// the usage text, generated from each subcommand's flag table.
//
// `scan` writes a portable faultload file; `campaign` can consume it later
// (possibly on another machine — the digest check refuses a mismatched OS
// build), which is exactly the paper's repeatable/portable faultload story.
// `campaign` takes the same flag set and writes the same artifacts as
// bench/table5_campaign (depbench/campaign_cli), one cell at a time; its
// --metrics-json manifest feeds `diff`. `--store` adds the crash-safe result
// cache (src/store): interrupted campaigns resume with `--resume`, unchanged
// faults are never re-executed, and the merged artifacts stay byte-identical
// for any cache-hit pattern. `diff` compares two campaign manifests and
// exits nonzero when any gated metric drifted beyond the threshold — the
// cross-campaign regression gate.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "depbench/campaign_cli.h"
#include "depbench/campaign_diff.h"
#include "depbench/report.h"
#include "depbench/tuner.h"
#include "isa/disassembler.h"
#include "store/campaign_codec.h"
#include "store/store.h"
#include "swfit/scanner.h"
#include "util/flags.h"
#include "util/log.h"

namespace {

using namespace gf;
using Value = const std::string&;

/// Every subcommand's flag values and positional arguments; each
/// subcommand's flag table writes its own.
struct Options {
  os::OsVersion version = os::OsVersion::kVos2000;
  std::string out, server, faultload, store, json;
  std::vector<std::string> servers = {"apex", "abyssal", "sambar", "savant"};
  bool all_symbols = false;
  std::uint64_t max_bytes = 0;
  std::string max_bytes_text;  ///< as given, to refuse it outside gc
  std::size_t limit = 20;
  depbench::DiffOptions diff;
  depbench::CampaignFlags campaign;
  std::vector<std::string> operands;
};

util::Flag::Setter assign(std::string& out) {
  return [&out](Value v) {
    out = v;
    return std::string();
  };
}

bool slurp(const std::string& path, std::string& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "cannot read %s\n", path.c_str());
    return false;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  out = buf.str();
  return true;
}

std::vector<std::string> api_names() {
  std::vector<std::string> names;
  for (const auto& fn : os::api_functions()) names.emplace_back(fn.name);
  return names;
}

int cmd_scan(Options& o) {
  os::Kernel kernel(o.version);
  swfit::Scanner scanner;
  const auto fl = o.all_symbols
                      ? scanner.scan_all(kernel.pristine_image())
                      : scanner.scan(kernel.pristine_image(), api_names());
  const auto counts = fl.counts_by_type();
  std::printf("scanned %s: %zu faults\n", os::os_version_name(o.version),
              fl.faults.size());
  for (int i = 0; i < swfit::kNumFaultTypes; ++i) {
    std::printf("  %-5s %d\n",
                swfit::fault_type_name(static_cast<swfit::FaultType>(i)),
                counts[static_cast<std::size_t>(i)]);
  }
  if (!o.out.empty()) {
    std::ofstream f(o.out);
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", o.out.c_str());
      return 1;
    }
    f << fl.serialize();
    std::printf("faultload written to %s (digest %016llx)\n", o.out.c_str(),
                static_cast<unsigned long long>(fl.digest));
  }
  return 0;
}

int cmd_profile(Options& o) {
  depbench::Profiler profiler;
  const auto profile = profiler.profile(o.version, o.servers);
  std::printf("%-30s", "function");
  for (const auto& col : profile.columns) std::printf(" %9s", col.server.c_str());
  std::printf(" %9s\n", "average");
  for (const auto& fn : os::api_functions()) {
    std::printf("%-30s", fn.name);
    for (const auto& col : profile.columns) {
      const auto it = col.pct.find(fn.name);
      std::printf(" %8.2f%%", it == col.pct.end() ? 0.0 : it->second);
    }
    std::printf(" %8.2f%%\n", profile.average_pct(fn.name));
  }
  const auto relevant = profile.relevant_functions();
  std::printf("selected for injection: %zu functions, %.2f%% call coverage\n",
              relevant.size(), profile.total_coverage());
  return 0;
}

int cmd_campaign(Options& o) {
  // A portable faultload file is digest-checked against this build before it
  // is handed to the runner; without the flag the runner scans for itself.
  auto& flags = o.campaign;
  swfit::Faultload fl;
  if (!o.faultload.empty()) {
    std::string text;
    if (!slurp(o.faultload, text)) return 1;
    fl = swfit::Faultload::parse(text);
    os::Kernel scan_kernel(o.version);
    if (!fl.matches(scan_kernel.pristine_image())) {
      std::fprintf(stderr,
                   "faultload digest does not match this %s build — refusing "
                   "to inject\n",
                   os::os_version_name(o.version));
      return 1;
    }
    flags.opt.faultload = &fl;
  }

  // Single-cell campaign through the same runner, seeds, slots and merges as
  // the bench drivers, so a gfbench run is byte-for-byte a one-cell slice of
  // the full campaign.
  flags.opt.versions = {o.version};
  flags.opt.servers = {o.server};
  depbench::CampaignSession session(std::move(flags));
  if (!session.run()) return 1;
  const auto& cell = session.cells().at(0);
  std::printf("%s\n", depbench::render_table5_cell(cell).c_str());
  const auto d = depbench::derive_metrics(cell);
  std::printf("SPC retention %.0f%%, THR retention %.0f%%, ER%%f %.1f, "
              "ADMf %.1f\n",
              100 * d.spc_rel, 100 * d.thr_rel, d.erf_pct, d.admf);
  return session.write_artifacts() ? 0 : 1;
}

// The action and its flags are checked before the store is opened, since
// opening creates the directory.
std::string check_store(const Options& o) {
  std::string action;
  for (const auto& word : o.operands) {
    action += (action.empty() ? "" : " ") + word;
  }
  if (action != "ls" && action != "verify" && action != "gc") {
    return "store: expects ls, verify or gc, got '" + action + "'";
  }
  if (!o.max_bytes_text.empty() && action != "gc") {
    return "--max-bytes: changes nothing without gc, got '" +
           o.max_bytes_text + "'";
  }
  return {};
}

int cmd_store(Options& o) {
  store::CampaignStore st(o.store);
  const auto& action = o.operands.at(0);
  if (action == "ls") {
    std::vector<std::uint8_t> payload;
    for (const auto& r : st.list()) {
      std::string cell = "?", label = "?";
      if (st.get(r.key, payload)) store::peek_run_meta(payload, cell, label);
      std::printf("%s  %10u  %s %s\n", r.key.hex().c_str(), r.length,
                  cell.c_str(), label.c_str());
    }
    const auto s = st.stats();
    std::printf("%llu records, %llu payload bytes",
                static_cast<unsigned long long>(s.records),
                static_cast<unsigned long long>(s.bytes));
    if (s.torn_bytes_dropped > 0) {
      std::printf(" (%llu torn bytes dropped at open)",
                  static_cast<unsigned long long>(s.torn_bytes_dropped));
    }
    std::printf("\n");
    return 0;
  }
  if (action == "verify") {
    const auto bad = st.verify();
    const auto s = st.stats();
    std::printf("%llu records verified, %zu corrupt\n",
                static_cast<unsigned long long>(s.records), bad);
    return bad == 0 ? 0 : 1;
  }
  const auto dropped = st.gc(o.max_bytes);
  const auto s = st.stats();
  std::printf("gc: dropped %zu records, %llu live (%llu payload bytes)\n",
              dropped, static_cast<unsigned long long>(s.records),
              static_cast<unsigned long long>(s.bytes));
  return 0;
}

std::string check_diff(const Options& o) {
  if (o.operands.size() == 2) return {};
  return "diff: expects OLD.json NEW.json, got " +
         std::to_string(o.operands.size()) + " path(s)";
}

int cmd_diff(Options& o) {
  std::string old_text, new_text;
  if (!slurp(o.operands[0], old_text) || !slurp(o.operands[1], new_text)) {
    return 1;
  }
  const auto d = depbench::diff_campaigns(old_text, new_text, o.diff);
  if (!d.ok) {
    std::fprintf(stderr, "error: %s\n", d.error.c_str());
    return 2;
  }
  if (!o.json.empty()) {
    std::ofstream out(o.json);
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", o.json.c_str());
      return 1;
    }
    out << d.json;
  }
  std::fputs(d.text.c_str(), stdout);
  std::printf("%s (threshold %.1f%%)\n",
              d.breached ? "BREACHED" : "within threshold",
              o.diff.threshold_pct);
  return d.breached ? 1 : 0;
}

int cmd_show(Options& o) {
  std::string text;
  if (!slurp(o.faultload, text)) return 1;
  const auto fl = swfit::Faultload::parse(text);
  std::printf("target %s, digest %016llx, %zu faults\n", fl.target.c_str(),
              static_cast<unsigned long long>(fl.digest), fl.faults.size());
  for (std::size_t i = 0; i < fl.faults.size() && i < o.limit; ++i) {
    const auto& fault = fl.faults[i];
    std::printf("%4zu  %-5s %-30s 0x%llx\n", i,
                swfit::fault_type_name(fault.type), fault.function.c_str(),
                static_cast<unsigned long long>(fault.addr));
    for (std::size_t k = 0; k < fault.window(); ++k) {
      std::printf("        %-28s => %s\n",
                  isa::disassemble(fault.original[k]).c_str(),
                  isa::disassemble(fault.mutated[k]).c_str());
    }
  }
  if (fl.faults.size() > o.limit) {
    std::printf("... %zu more (use --limit)\n", fl.faults.size() - o.limit);
  }
  return 0;
}

// Each subcommand's flag table, writing into `o`.
std::vector<util::Flag> flags_of(const std::string& cmd, Options& o) {
  const util::Flag os_row = {"os", "2000|xp", [&o](Value v) {
                               if (v != "2000" && v != "xp") {
                                 return std::string("expects 2000 or xp");
                               }
                               o.version = v == "xp" ? os::OsVersion::kVosXp
                                                     : os::OsVersion::kVos2000;
                               return std::string();
                             }};
  if (cmd == "scan") {
    return {os_row,
            {"out", "FILE", assign(o.out)},
            {"all-symbols", [&o] { o.all_symbols = true; }}};
  }
  if (cmd == "profile") {
    return {os_row, {"servers", "A,B,...", [&o](Value v) {
                       o.servers.clear();
                       std::istringstream in(v);
                       for (std::string name; std::getline(in, name, ',');) {
                         o.servers.push_back(name);
                       }
                       return std::string();
                     }}};
  }
  // The campaign flags are the benches' own (depbench/campaign_cli); only
  // the cell selection and the portable faultload are gfbench's.
  if (cmd == "campaign") {
    return {os_row,
            {"server", "NAME", assign(o.server), /*is_required=*/true},
            {"faultload", "FILE", assign(o.faultload)}};
  }
  if (cmd == "store") {
    return {{"store", "DIR", assign(o.store), /*is_required=*/true},
            {"max-bytes", "N", [&o](Value v) {
               o.max_bytes_text = v;
               return util::parse_int(v, 0, o.max_bytes);
             }}};
  }
  if (cmd == "show") {
    return {{"faultload", "FILE", assign(o.faultload), /*is_required=*/true},
            {"limit", "N",
             [&o](Value v) { return util::parse_int(v, 0, o.limit); }}};
  }
  return {{"threshold", "PCT",
           [&o](Value v) {
             return util::parse_real(v, true, o.diff.threshold_pct);
           }},
          {"json", "FILE", assign(o.json)}};
}

/// One subcommand: its positional arguments, the check of what its flag
/// table cannot express, and the command itself.
struct Command {
  const char* name;
  const char* operands;  ///< positional synopsis; "" = takes none
  std::string (*check)(const Options&);  ///< nullptr = nothing to check
  int (*run)(Options&);
};

const Command kCommands[] = {
    {"scan", "", nullptr, cmd_scan},
    {"profile", "", nullptr, cmd_profile},
    {"campaign", "", nullptr, cmd_campaign},
    {"store", "ls|verify|gc", check_store, cmd_store},
    {"show", "", nullptr, cmd_show},
    {"diff", "OLD.json NEW.json", check_diff, cmd_diff},
};

/// "<name> <operands> <flags>", generated from the command's table; `pad`
/// aligns the operands of the command list.
std::string usage_line(const Command& c, bool pad) {
  const std::string indent(11, ' ');
  Options o;
  char name[16];
  std::snprintf(name, sizeof name, pad ? "%-8s " : "%s ", c.name);
  std::string line = name;
  if (*c.operands != '\0') line += std::string(c.operands) + " ";
  line += util::flags_usage(flags_of(c.name, o), indent);
  if (c.run == cmd_campaign) {
    line += "\n" + indent + depbench::campaign_flags_usage(indent);
  }
  return line;
}

std::string usage() {
  std::string text =
      "gfbench <scan|profile|campaign|store|show|diff> [options]";
  for (const auto& c : kCommands) text += "\n  " + usage_line(c, true);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string cmd = argc > 1 ? argv[1] : "";
  const auto* c = std::find_if(std::begin(kCommands), std::end(kCommands),
                               [&](const Command& k) { return cmd == k.name; });
  if (c == std::end(kCommands)) {
    util::exit_usage(cmd.empty() ? "no command given"
                                 : "unknown command '" + cmd + "'",
                     usage());
  }
  util::set_log_level(util::LogLevel::kInfo);
  // Defaults of `campaign`: the whole faultload (stride 1) under seed 1000.
  Options o;
  o.campaign.opt.stride = 1;
  o.campaign.opt.seed = 1000;
  const std::vector<std::string> args(argv + 2, argv + argc);
  auto err = c->run == cmd_campaign
                 ? depbench::parse_campaign_flags(args, o.campaign,
                                                  flags_of(cmd, o))
                 : util::parse_flags(args, flags_of(cmd, o),
                                     *c->operands != '\0' ? &o.operands
                                                          : nullptr);
  if (err.empty() && c->check != nullptr) err = c->check(o);
  if (!err.empty()) util::exit_usage(err, "gfbench " + usage_line(*c, false));
  try {
    return c->run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
