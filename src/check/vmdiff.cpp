// Engine 2: the VM differential fuzzer.
//
// The VM promises that its execution *strategies* — predecoded blocks,
// superinstruction fusion, dispatch lowering — are architecturally invisible:
// registers, memory, flags, cycles, traps, retired-instruction counts, the
// deterministic PC sample stream and the watch traces are pure functions of
// the executed code. This engine drives randomly generated MiniC programs
// (plus mutated variants from the fault scanner) through three in-process
// configurations and compares the full architectural state digest at every
// trap boundary:
//
//   ref    — predecode on, fusion on   (the production shape)
//   nofuse — predecode on, fusion off
//   nopre  — predecode off (per-step decode), fusion setting irrelevant
//
// Each case runs its calls under two sampler/watch setups. The first draws
// a stride of 64-4096 and arms a random watch window. The second draws
// from its own stream (so the first setup, the program, the calls and the
// mutants stay what a `--case-seed` repro line names): a stride of 1-63,
// which puts a sample horizon inside most blocks, and a watch left
// disarmed half the time, so whole programs run as blocks.
//
// The third axis — threaded vs switch dispatch — is a compile-time property
// of gf_vm, so one process can only host one lowering. For that, the engine
// emits one canonical digest line per case (want_dump); CI builds gfcheck
// under both lowerings and `cmp`s the dumps.
#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/internal.h"
#include "check/progen.h"
#include "isa/image.h"
#include "minic/compiler.h"
#include "store/key.h"
#include "swfit/injector.h"
#include "swfit/scanner.h"
#include "util/rng.h"
#include "vm/machine.h"

namespace gf::check {
namespace {

using internal::expect;
using internal::expect_same;
using internal::hex64;

/// One VM configuration under test.
struct Config {
  const char* name;
  bool predecode;
  bool fusion;
};

constexpr Config kConfigs[] = {
    {"ref", true, true},
    {"nofuse", true, false},
    {"nopre", false, true},
};
constexpr std::size_t kNumConfigs = sizeof kConfigs / sizeof kConfigs[0];

/// Small machine (1 MiB) so the full-memory digest at every boundary stays
/// cheap; the default stack region (top 64 KiB) suits call() out of the box.
constexpr std::size_t kMemSize = 1u << 20;

std::string render_samples(const std::map<std::uint64_t, std::uint64_t>& s) {
  std::ostringstream out;
  for (const auto& [pc, n] : s) out << std::hex << pc << ":" << std::dec << n << " ";
  return out.str();
}

std::string render_result(const vm::RunResult& r) {
  std::ostringstream out;
  out << "trap=" << vm::trap_name(r.trap) << " cycles=" << r.cycles
      << " pc=" << std::hex << r.pc << std::dec << " ret=" << r.ret;
  return out.str();
}

std::string render_watch(const vm::WatchTrace& w) {
  std::ostringstream out;
  out << "hits=" << w.hits << " first=" << w.first_hit_cycle
      << " edges=" << w.edge_count;
  for (const auto& e : w.edges()) {
    out << " " << std::hex << e.from << "->" << e.to << std::dec;
  }
  return out.str();
}

void run_case(std::uint64_t cs, bool want_dump, CheckReport& report) {
  util::Rng rng(cs);
  ProgramGen gen(rng);
  const auto src = gen.generate();
  const auto img = minic::compile(src, "p", 0x1000);
  const auto* sym = img.find_symbol("f");
  if (!expect(sym != nullptr, "generated program has no symbol f", report)) {
    return;
  }

  const std::uint64_t stride = 64 + rng.bounded(4033);

  // Watch window: a random instruction-aligned span inside the image.
  const std::uint64_t nslots = (img.end() - img.base()) / isa::kInstrSize;
  const std::uint64_t w0 = rng.bounded(nslots);
  const std::uint64_t wlen = 1 + rng.bounded(nslots - w0);
  const std::uint64_t watch_lo = img.base() + w0 * isa::kInstrSize;
  const std::uint64_t watch_hi = watch_lo + wlen * isa::kInstrSize;

  // The shared call sequence: three full-budget calls plus two starved ones
  // (random small budgets, likely stopping mid-execution at kCycleLimit —
  // the digest must agree even at an arbitrary interruption point).
  struct Call {
    std::int64_t a, b;
    std::uint64_t budget;
  };
  std::vector<Call> calls;
  for (int i = 0; i < 3; ++i) {
    calls.push_back({rng.range(-100, 100), rng.range(-100, 100), 1u << 20});
  }
  for (int i = 0; i < 2; ++i) {
    calls.push_back({rng.range(-100, 100), rng.range(-100, 100),
                     static_cast<std::uint64_t>(rng.range(50, 2000))});
  }

  struct Setup {
    std::uint64_t stride;
    bool watch;
    const char* name;
  };
  util::Rng wide_rng(case_seed(cs, 1));
  const std::uint64_t small_stride = 1 + wide_rng.bounded(63);
  const bool small_watch = wide_rng.bounded(2) == 0;
  const Setup setups[] = {{stride, true, ""},
                          {small_stride, small_watch, " [small stride]"}};

  for (const Setup& setup : setups) {
    vm::Machine machines[kNumConfigs] = {
        vm::Machine(kMemSize), vm::Machine(kMemSize), vm::Machine(kMemSize)};
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      machines[c].load_image(img);
      machines[c].set_predecode(kConfigs[c].predecode);
      machines[c].set_fusion(kConfigs[c].fusion);
      machines[c].arm_sampler(setup.stride);
      if (setup.watch) machines[c].arm_watch(watch_lo, watch_hi);
    }

    for (std::size_t k = 0; k < calls.size(); ++k) {
      const auto& call = calls[k];
      vm::RunResult results[kNumConfigs];
      for (std::size_t c = 0; c < kNumConfigs; ++c) {
        results[c] = machines[c].call(sym->addr, {call.a, call.b}, call.budget);
      }
      const auto tag = " @call " + std::to_string(k) + " (" +
                       std::to_string(call.a) + "," + std::to_string(call.b) +
                       " budget " + std::to_string(call.budget) + ")" +
                       setup.name;
      for (std::size_t c = 1; c < kNumConfigs; ++c) {
        expect_same(std::string("run result ref vs ") + kConfigs[c].name + tag,
                    render_result(results[0]), render_result(results[c]),
                    report);
        expect(machines[0].state_digest() == machines[c].state_digest(),
               std::string("state digest ref vs ") + kConfigs[c].name + tag +
                   ": " + hex64(machines[0].state_digest()) + " vs " +
                   hex64(machines[c].state_digest()),
               report);
        expect(machines[0].dispatch_stats().instructions ==
                   machines[c].dispatch_stats().instructions,
               std::string("retired-instruction count ref vs ") +
                   kConfigs[c].name + tag,
               report);
      }
    }

    for (std::size_t c = 1; c < kNumConfigs; ++c) {
      expect_same(std::string("sample stream ref vs ") + kConfigs[c].name +
                      setup.name,
                  render_samples(machines[0].samples()),
                  render_samples(machines[c].samples()), report);
      expect_same(std::string("watch trace ref vs ") + kConfigs[c].name +
                      setup.name,
                  render_watch(machines[0].watch_trace()),
                  render_watch(machines[c].watch_trace()), report);
    }

    if (want_dump && &setup == &setups[0]) {
      // Canonical cross-lowering fingerprint of the case: the reference
      // machine's final digest, retired count, and a hash of its sample
      // stream. A switch-dispatch build must reproduce every line exactly.
      const auto samples = render_samples(machines[0].samples());
      char line[160];
      std::snprintf(line, sizeof line, "vm %s %s %llu %s", hex64(cs).c_str(),
                    hex64(machines[0].state_digest()).c_str(),
                    static_cast<unsigned long long>(
                        machines[0].dispatch_stats().instructions),
                    hex64(store::fnv1a(
                              reinterpret_cast<const std::uint8_t*>(
                                  samples.data()),
                              samples.size()))
                        .c_str());
      report.dump_lines.emplace_back(line);
    }
  }

  // Mutated variants: a handful of random scanner faults. A mutant may trap
  // or burn its whole budget — containment is the VM's problem; the oracle
  // only demands that every configuration observes the SAME outcome.
  const auto fl = swfit::Scanner{}.scan_all(img);
  const std::size_t mutants =
      fl.faults.empty() ? 0 : std::min<std::size_t>(6, 1 + rng.bounded(6));
  for (std::size_t m = 0; m < mutants; ++m) {
    const auto& fault = fl.faults[rng.bounded(fl.faults.size())];
    auto mimg = img;
    if (!expect(swfit::apply_fault(mimg, fault),
                "scanner fault failed to apply", report)) {
      continue;
    }
    vm::Machine shapes[kNumConfigs] = {
        vm::Machine(kMemSize), vm::Machine(kMemSize), vm::Machine(kMemSize)};
    vm::RunResult results[kNumConfigs];
    for (std::size_t c = 0; c < kNumConfigs; ++c) {
      shapes[c].load_image(mimg);
      shapes[c].set_predecode(kConfigs[c].predecode);
      shapes[c].set_fusion(kConfigs[c].fusion);
      results[c] = shapes[c].call(sym->addr, {3, 4}, 50000);
    }
    const auto tag = " @mutant " + std::to_string(m) + " " +
                     swfit::fault_type_name(fault.type) + "@" +
                     hex64(fault.addr);
    for (std::size_t c = 1; c < kNumConfigs; ++c) {
      expect_same(std::string("mutant run result ref vs ") +
                      kConfigs[c].name + tag,
                  render_result(results[0]), render_result(results[c]), report);
      expect(shapes[0].state_digest() == shapes[c].state_digest(),
             std::string("mutant state digest ref vs ") + kConfigs[c].name +
                 tag,
             report);
    }
  }
}

}  // namespace

CheckReport run_vm_engine(const CheckOptions& opt) {
  return internal::run_cases(opt, "vm",
                             [&opt](std::uint64_t cs, CheckReport& report) {
                               run_case(cs, opt.want_dump, report);
                             });
}

}  // namespace gf::check
