// gfcheck — the property-based differential fuzzer CLI (src/check).
//
// Runs a fixed, seed-named budget of randomized differential cases through
// the selected engines. Every failure prints the engine, the 64-bit case
// seed, the violated oracle, and a complete repro command line; the exit
// status is 1 when any oracle was violated, 2 on usage errors, 0 otherwise.
//
//   --engine E     all (default), matrix, vm or structure
//   --seed N       base seed; case i runs at case_seed(N, i)  (default 1)
//   --cases K      cases per engine                           (default 25)
//   --case-seed S  replay exactly this case seed (repeatable; the repro
//                  path printed by a failure). Overrides --seed/--cases.
//   --scratch DIR  scratch directory for store-backed cases
//   --dump FILE    write the VM engine's canonical per-case digest lines;
//                  CI cmp's the dumps of threaded- and switch-dispatch
//                  builds (the cross-lowering oracle)
//   --verbose      narrate every case to stderr
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "util/flags.h"

int main(int argc, char** argv) {
  using Value = const std::string&;
  std::string engine = "all";
  std::string dump_path;
  gf::check::CheckOptions opt;
  const std::vector<gf::util::Flag> flags = {
      {"engine", "all|matrix|vm|structure",
       [&](Value v) {
         if (v != "all" && v != "matrix" && v != "vm" && v != "structure") {
           return std::string("expects all, matrix, vm or structure");
         }
         engine = v;
         return std::string();
       }},
      {"seed", "N",
       [&](Value v) { return gf::util::parse_int(v, 0, opt.seed); }},
      {"cases", "K",
       [&](Value v) { return gf::util::parse_int(v, 0, opt.cases); }},
      {"case-seed", "S",
       [&](Value v) {
         std::uint64_t s = 0;
         auto why = gf::util::parse_int(v, 0, s);
         if (why.empty()) opt.explicit_seeds.push_back(s);
         return why;
       }},
      {"scratch", "DIR",
       [&](Value v) {
         opt.scratch_dir = v;
         return std::string();
       }},
      {"dump", "FILE",
       [&](Value v) {
         dump_path = v;
         opt.want_dump = true;
         return std::string();
       }},
      {"verbose", [&] { opt.verbose = true; }},
  };
  gf::util::parse_flags_or_exit(argc, argv, flags);
  if (opt.cases == 0 && opt.explicit_seeds.empty()) {
    std::fprintf(stderr, "error: --cases: no case to run, got '0'\n");
    return 2;
  }

  struct EngineRun {
    const char* name;
    gf::check::CheckReport (*run)(const gf::check::CheckOptions&);
  };
  const std::vector<EngineRun> engines = {
      {"matrix", gf::check::run_matrix_engine},
      {"vm", gf::check::run_vm_engine},
      {"structure", gf::check::run_structure_engine},
  };

  std::size_t total_cases = 0;
  std::vector<gf::check::Failure> failures;
  std::vector<std::string> dump_lines;
  for (const auto& e : engines) {
    if (engine != "all" && engine != e.name) continue;
    const auto report = e.run(opt);
    total_cases += report.cases;
    failures.insert(failures.end(), report.failures.begin(),
                    report.failures.end());
    dump_lines.insert(dump_lines.end(), report.dump_lines.begin(),
                      report.dump_lines.end());
    std::printf("gfcheck: engine %-9s %3zu cases, %zu failure%s\n", e.name,
                report.cases, report.failures.size(),
                report.failures.size() == 1 ? "" : "s");
  }

  if (!dump_path.empty()) {
    std::ofstream out(dump_path, std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "gfcheck: cannot write %s\n", dump_path.c_str());
      return 2;
    }
    for (const auto& line : dump_lines) out << line << "\n";
  }

  for (const auto& f : failures) {
    std::printf("\nFAIL [%s] case seed 0x%016llx\n  %s\n  repro: %s\n",
                f.engine.c_str(),
                static_cast<unsigned long long>(f.case_seed),
                f.message.c_str(), f.repro.c_str());
  }
  if (!failures.empty()) {
    std::printf("\ngfcheck: %zu oracle violation%s in %zu cases\n",
                failures.size(), failures.size() == 1 ? "" : "s", total_cases);
    return 1;
  }
  std::printf("gfcheck: all %zu cases clean\n", total_cases);
  return 0;
}
