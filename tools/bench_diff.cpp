// bench_diff — regression gate for the committed BENCH_*.json baselines.
//
//   bench_diff BASELINE.json NEW.json [--tolerance PCT]
//
// Walks both documents and compares every numeric leaf by path. Only
// dimensionless ratio metrics gate (key name containing "overhead",
// "speedup", "rate", "utilization" or "imbalance"): those capture the
// *shape* of the performance story (obs overhead ~1x, warm-boot speedup,
// activation rates) and are comparable across machines. Absolute timings
// (ns/ms/items-per-second) are reported as informational drift only — the
// committed baselines come from a different box than CI runners.
//
// A boolean leaf that was true in the baseline and false in the new run is
// always a breach (e.g. artifacts_identical flipping off). Missing gated
// leaves breach; extra leaves are informational. Two points whose top-level
// "schema" or "jobs" differ are not comparable and are refused. Exit 0 when
// within tolerance, 1 on any breach, 2 on usage/parse errors (a --tolerance
// that is not a number >= 0 included) and on incomparable points.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.h"
#include "util/flags.h"

namespace {

using gf::obs::json::Value;

struct Leaf {
  std::string path;
  bool is_bool = false;
  bool boolean = false;
  double number = 0;
};

void collect(const Value& v, const std::string& path, std::vector<Leaf>& out) {
  switch (v.type) {
    case Value::Type::kNumber:
      out.push_back({path, false, false, v.number});
      break;
    case Value::Type::kBool:
      out.push_back({path, true, v.boolean, 0});
      break;
    case Value::Type::kObject:
      for (const auto& [key, child] : v.object) {
        collect(child, path.empty() ? key : path + "." + key, out);
      }
      break;
    case Value::Type::kArray:
      for (std::size_t i = 0; i < v.array.size(); ++i) {
        collect(v.array[i], path + "[" + std::to_string(i) + "]", out);
      }
      break;
    default:
      break;
  }
}

/// Dimensionless ratio metrics gate; absolute timings don't. The last path
/// component decides, so "static.utilization" gates but "workers[3].busy_us"
/// does not.
bool gated(const std::string& path) {
  const auto dot = path.rfind('.');
  const auto key = dot == std::string::npos ? path : path.substr(dot + 1);
  for (const char* pat :
       {"overhead", "speedup", "rate", "utilization", "imbalance"}) {
    if (key.find(pat) != std::string::npos) return true;
  }
  return false;
}

const Leaf* find_leaf(const std::vector<Leaf>& leaves, const std::string& path) {
  for (const auto& l : leaves) {
    if (l.path == path) return &l;
  }
  return nullptr;
}

/// The top-level `key` of a point, read through the typed reader ("schema"
/// a string, "jobs" a count), or "none" when the point has no such key.
std::string identity(const Value& root, const char* key) {
  const auto* v = root.find(key);
  if (v == nullptr) return "none";
  const gf::obs::json::Field f(*v, key);
  return std::string_view(key) == "jobs" ? std::to_string(f.count())
                                         : f.string();
}

bool slurp(const char* path, std::string& out) {
  std::ifstream f(path);
  if (!f) {
    std::fprintf(stderr, "bench_diff: cannot read %s\n", path);
    return false;
  }
  std::stringstream buf;
  buf << f.rdbuf();
  out = buf.str();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  double tolerance = 15.0;
  std::vector<const char*> files;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tolerance") == 0 && i + 1 < argc) {
      const char* value = argv[++i];
      gf::util::check_flag("--tolerance", value,
                           gf::util::parse_real(value, true, tolerance));
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      std::fprintf(stderr,
                   "usage: bench_diff BASELINE.json NEW.json "
                   "[--tolerance PCT]\n");
      return 2;
    } else {
      files.push_back(argv[i]);
    }
  }
  if (files.size() != 2) {
    std::fprintf(stderr,
                 "usage: bench_diff BASELINE.json NEW.json [--tolerance PCT]\n");
    return 2;
  }
  std::string base_text, new_text;
  if (!slurp(files[0], base_text) || !slurp(files[1], new_text)) return 2;
  std::string err;
  const auto base = gf::obs::json::parse(base_text, &err);
  if (!base) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", files[0], err.c_str());
    return 2;
  }
  const auto next = gf::obs::json::parse(new_text, &err);
  if (!next) {
    std::fprintf(stderr, "bench_diff: %s: %s\n", files[1], err.c_str());
    return 2;
  }

  for (const char* key : {"schema", "jobs"}) {
    std::string b, n;
    try {
      b = identity(*base, key);
      n = identity(*next, key);
    } catch (const gf::obs::json::DecodeError& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
    if (b != n) {
      std::fprintf(stderr, "error: %s: %s is %s, %s is %s — not comparable\n",
                   key, files[0], b.c_str(), files[1], n.c_str());
      return 2;
    }
  }

  std::vector<Leaf> base_leaves, new_leaves;
  collect(*base, "", base_leaves);
  collect(*next, "", new_leaves);

  bool breached = false;
  int gated_checked = 0;
  for (const auto& b : base_leaves) {
    const auto* n = find_leaf(new_leaves, b.path);
    if (b.is_bool) {
      if (n == nullptr || n->is_bool != true) continue;
      if (b.boolean && !n->boolean) {
        std::printf("BREACH %-40s true -> false\n", b.path.c_str());
        breached = true;
      }
      continue;
    }
    const bool gate = gated(b.path);
    if (n == nullptr || n->is_bool) {
      if (gate) {
        std::printf("BREACH %-40s missing in new run\n", b.path.c_str());
        breached = true;
      }
      continue;
    }
    const double denom = std::abs(b.number) < 1e-12 ? 1.0 : std::abs(b.number);
    const double drift = 100.0 * std::abs(n->number - b.number) / denom;
    if (gate) {
      ++gated_checked;
      if (drift > tolerance) {
        std::printf("BREACH %-40s %.4g -> %.4g (%.1f%% > %.1f%%)\n",
                    b.path.c_str(), b.number, n->number, drift, tolerance);
        breached = true;
      }
    } else if (drift > tolerance) {
      // Informational: absolute numbers drift with the machine.
      std::printf("info   %-40s %.4g -> %.4g (%.1f%%)\n", b.path.c_str(),
                  b.number, n->number, drift);
    }
  }
  if (gated_checked == 0) {
    std::printf("BREACH no gated ratio metrics found in %s\n", files[0]);
    breached = true;
  }
  std::printf("bench_diff: %d ratio metrics checked, tolerance %.1f%% — %s\n",
              gated_checked, tolerance, breached ? "BREACHED" : "ok");
  return breached ? 1 : 0;
}
