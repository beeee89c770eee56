// json_check — JSON validator for the bench/CI artifact pipeline.
//
//   json_check FILE...                    strict syntax check
//   json_check --jsonl FILE...            one JSON object per line
//   json_check --schema metrics FILE      obs registry
//   json_check --schema chrome FILE       Chrome trace-event shape
//   json_check --schema manifest FILE     genfault-campaign/1 manifest
//   json_check --schema sched FILE        genfault-sched/1 (--sched-json)
//   json_check --schema store FILE        genfault-store/1 (--store-json)
//   json_check --schema micro FILE        BENCH_micro.json sanity (Release
//                                         build context, positive rates)
//   json_check --schema profile FILE      genfault-profile/1 cycle profiles
//   json_check --schema diff FILE         genfault-diff/1 campaign comparison
//
// The repo's own formats are checked by the decoder beside each renderer.
// The chrome and micro checks describe formats this repo does not define.
//
// Exit 0 when every file validates; prints the first problem per file and
// exits 1 otherwise. run_benches.sh and the CI workflow pipe every emitted
// artifact through this, so a malformed emitter fails loudly instead of
// producing quietly-broken dashboards.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "depbench/campaign_diff.h"
#include "depbench/campaign_report.h"
#include "depbench/scheduler.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "store/store.h"
#include "util/flags.h"

namespace {

using gf::obs::json::DecodeError;
using gf::obs::json::Field;
using gf::obs::json::Value;

bool fail(const std::string& file, const std::string& why) {
  std::fprintf(stderr, "json_check: %s: %s\n", file.c_str(), why.c_str());
  return false;
}

bool is_object(const Value* v) {
  return v != nullptr && v->type == Value::Type::kObject;
}
bool is_array(const Value* v) {
  return v != nullptr && v->type == Value::Type::kArray;
}
bool is_number(const Value* v) {
  return v != nullptr && v->type == Value::Type::kNumber;
}
bool is_string(const Value* v) {
  return v != nullptr && v->type == Value::Type::kString;
}

/// {"traceEvents": [{"ph", "pid", "tid", "name", ...}...]} with matched B/E
/// nesting and monotone timestamps per (pid, tid) track.
bool check_chrome(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* events = root.find("traceEvents");
  if (!is_array(events)) return fail(file, "missing traceEvents[]");
  // Track state keyed by "pid/tid": open B depth and last timestamp.
  std::vector<std::pair<std::string, std::pair<long, double>>> tracks;
  auto track = [&](const std::string& key)
      -> std::pair<long, double>& {
    for (auto& [k, st] : tracks) {
      if (k == key) return st;
    }
    tracks.emplace_back(key, std::make_pair(0L, -1e300));
    return tracks.back().second;
  };
  for (std::size_t i = 0; i < events->array.size(); ++i) {
    const auto& e = events->array[i];
    const auto at = "traceEvents[" + std::to_string(i) + "]";
    if (e.type != Value::Type::kObject) return fail(file, at + " not object");
    const auto* ph = e.find("ph");
    if (!is_string(ph)) return fail(file, at + " missing ph");
    if (!is_string(e.find("name"))) return fail(file, at + " missing name");
    if (!is_number(e.find("pid")) || !is_number(e.find("tid"))) {
      return fail(file, at + " missing pid/tid");
    }
    if (ph->string == "M") continue;  // metadata carries no timestamp
    const auto* ts = e.find("ts");
    if (!is_number(ts)) return fail(file, at + " missing ts");
    const auto key = std::to_string(e.find("pid")->number) + "/" +
                     std::to_string(e.find("tid")->number);
    auto& [depth, last_ts] = track(key);
    if (ts->number < last_ts) {
      return fail(file, at + " timestamp not monotone on track " + key);
    }
    last_ts = ts->number;
    if (ph->string == "B") ++depth;
    if (ph->string == "E") {
      if (depth <= 0) return fail(file, at + " unmatched E on track " + key);
      --depth;
    }
    if (ph->string == "X" && !is_number(e.find("dur"))) {
      return fail(file, at + " X event missing dur");
    }
  }
  for (const auto& [key, st] : tracks) {
    if (st.first != 0) {
      return fail(file, "unclosed B span(s) on track " + key);
    }
  }
  return true;
}

/// BENCH_micro.json (google-benchmark --benchmark_out): context sanity plus
/// per-benchmark shape. The context check is the committed-trajectory guard:
/// run_benches.sh injects build_type=Release (the library's own
/// "library_build_type" describes the distro libbenchmark package, which is
/// a debug build, NOT this project) and micro_substrate's main() reports the
/// interpreter lowering as vm_dispatch. A BENCH_micro.json missing either is
/// from an unguarded/by-hand run and is refused.
bool check_micro(const std::string& file, const Value& root) {
  if (root.type != Value::Type::kObject) return fail(file, "root not object");
  const auto* ctx = root.find("context");
  if (!is_object(ctx)) return fail(file, "missing context{}");
  const auto* build = ctx->find("build_type");
  if (!is_string(build)) {
    return fail(file, "context missing build_type (run via bench/"
                      "run_benches.sh, which injects it after verifying the "
                      "build dir is Release)");
  }
  if (build->string != "Release") {
    return fail(file, "context.build_type is '" + build->string +
                          "', not Release — numbers not comparable");
  }
  const auto* disp = ctx->find("vm_dispatch");
  if (!is_string(disp) ||
      (disp->string != "threaded" && disp->string != "switch")) {
    return fail(file, "context.vm_dispatch missing or not threaded|switch");
  }
  const auto* cpus = ctx->find("num_cpus");
  if (!is_number(cpus) || cpus->number <= 0) {
    return fail(file, "context.num_cpus missing or not positive");
  }
  const auto* benches = root.find("benchmarks");
  if (!is_array(benches) || benches->array.empty()) {
    return fail(file, "missing or empty benchmarks[]");
  }
  bool saw_dispatch = false;
  for (std::size_t i = 0; i < benches->array.size(); ++i) {
    const auto& b = benches->array[i];
    const auto at = "benchmarks[" + std::to_string(i) + "]";
    if (b.type != Value::Type::kObject) return fail(file, at + " not object");
    const auto* name = b.find("name");
    if (!is_string(name)) return fail(file, at + " missing name");
    // Aggregate rows append _mean, _median, ... to the name; run_name is the
    // benchmark's own name.
    const auto* run_name = b.find("run_name");
    const auto& base = is_string(run_name) ? run_name->string : name->string;
    const auto family = base.substr(0, base.find('/'));
    const auto* rt = b.find("real_time");
    if (!is_number(rt) || rt->number <= 0) {
      return fail(file, at + " (" + name->string + ") real_time not positive");
    }
    const auto* ips = b.find("items_per_second");
    if (ips != nullptr && (!is_number(ips) || ips->number <= 0)) {
      return fail(file,
                  at + " (" + name->string + ") items_per_second not positive");
    }
    if (family == "BM_VmDispatch") {
      if (!is_number(ips)) {
        return fail(file, at + " BM_VmDispatch missing items_per_second");
      }
      saw_dispatch = true;
    }
  }
  if (!saw_dispatch) {
    return fail(file, "no BM_VmDispatch entry (the headline dispatch-rate "
                      "trajectory point)");
  }
  return true;
}

bool check_file(const std::string& file, const std::string& schema,
                bool jsonl) {
  std::ifstream f(file);
  if (!f) return fail(file, "cannot open");
  std::stringstream buf;
  buf << f.rdbuf();
  const std::string text = buf.str();

  if (jsonl) {
    std::istringstream lines(text);
    std::string line;
    std::size_t n = 0;
    while (std::getline(lines, line)) {
      ++n;
      if (line.empty()) continue;
      std::string err;
      const auto v = gf::obs::json::parse(line, &err);
      if (!v) return fail(file, "line " + std::to_string(n) + ": " + err);
      if (v->type != Value::Type::kObject) {
        return fail(file, "line " + std::to_string(n) + ": not an object");
      }
    }
    return true;
  }

  std::string err;
  const auto v = gf::obs::json::parse(text, &err);
  if (!v) return fail(file, err);
  if (schema == "chrome") return check_chrome(file, *v);
  if (schema == "micro") return check_micro(file, *v);
  try {
    const Field root(*v);
    if (schema == "metrics") gf::obs::Registry::from_json(root);
    if (schema == "manifest") gf::depbench::CampaignManifest::from_json(root);
    if (schema == "profile") gf::depbench::ProfileDocument::from_json(root);
    if (schema == "diff") gf::depbench::DiffReport::from_json(root);
    if (schema == "sched") gf::depbench::SchedReport::from_json(root);
    if (schema == "store") gf::store::StoreStats::from_json(root);
  } catch (const DecodeError& e) {
    return fail(file, e.what());
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string schema;
  bool jsonl = false;
  std::vector<std::string> files;
  const std::vector<gf::util::Flag> flags = {
      {"jsonl", [&] { jsonl = true; }},
      {"schema", "metrics|chrome|manifest|sched|store|micro|profile|diff",
       [&](const std::string& v) {
         for (const char* known : {"metrics", "chrome", "manifest", "sched",
                                   "store", "micro", "profile", "diff"}) {
           if (v == known) {
             schema = v;
             return std::string();
           }
         }
         return std::string(
             "expects metrics, chrome, manifest, sched, store, micro, "
             "profile or diff");
       }},
  };
  const auto err =
      gf::util::parse_flags({argv + 1, argv + argc}, flags, &files);
  if (!err.empty() || files.empty()) {
    gf::util::exit_usage(err.empty() ? "no FILE given" : err,
                         std::string(argv[0]) + " " +
                             gf::util::flags_usage(flags, "    ") + " FILE...");
  }
  bool ok = true;
  for (const auto& file : files) ok = check_file(file, schema, jsonl) && ok;
  if (ok && files.size() > 1) {
    std::printf("json_check: %zu files ok\n", files.size());
  }
  return ok ? 0 : 1;
}
