// Deterministic flat cycle profiles and differential attribution.
//
// A Profile aggregates the VM's stride-countdown PC samples after they have
// been attributed to functions (via the guest image's symbol table): one
// sample ≙ one stride of virtual cycles spent inside the function. Because
// the sampler ticks only at retired architectural-step boundaries of the
// deterministic VM, a profile is a pure function of (seed, cell, task) —
// byte-identical for any scheduling, fusion setting or dispatch lowering.
//
// Differential profiles answer the paper's missing question — *where did
// execution go after a fault activated* — by comparing the faulty run's
// cycle-share distribution against the baseline's: per-function share deltas
// ranked by magnitude, plus a single divergence score (half the L1 distance
// between the two distributions, 0 = identical, 1 = disjoint).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace gf::obs {

namespace json {
class Field;
}

/// Flat per-function sample profile. `total` is always the sum of the
/// per-function counts (from_json rejects a profile where it is not).
struct Profile {
  std::uint64_t stride = 0;  ///< sampling stride in virtual cycles; 0 = off
  std::uint64_t total = 0;   ///< total samples across all functions
  std::map<std::string, std::uint64_t> functions;  ///< name -> samples

  bool empty() const noexcept { return total == 0; }

  /// Adds `n` samples to `fn` (and to the total).
  void add(const std::string& fn, std::uint64_t n);

  /// Folds `other` into this profile (sums per-function counts). The first
  /// non-empty stride wins; merging is commutative and associative for
  /// profiles taken at one stride, which the campaign guarantees.
  void merge(const Profile& other);

  /// Fraction of all samples spent in `fn` (0 when the profile is empty).
  double share(const std::string& fn) const noexcept;

  /// Canonical JSON object (sorted keys, integer counts):
  ///   {"stride": S, "total": N, "functions": {"name": n, ...}}
  std::string to_json() const;
  /// Decodes a to_json() rendering; `total` must be the counts' sum.
  static Profile from_json(const json::Field& f);
};

/// One function's contribution to a differential profile.
struct FunctionDelta {
  std::string name;
  std::uint64_t base_samples = 0;
  std::uint64_t fault_samples = 0;
  double base_share = 0;
  double fault_share = 0;
  double delta = 0;  ///< fault_share - base_share
};

/// Differential profile of a faulty run against its baseline.
struct Divergence {
  /// Half the L1 distance between the two share distributions: 0 when the
  /// cycle distributions are identical, 1 when they share no function.
  double score = 0;
  /// Per-function deltas over the union of both function sets, ranked by
  /// |delta| descending with the function name as deterministic tiebreak.
  std::vector<FunctionDelta> deltas;

  /// Canonical JSON object:
  ///   {"score": s, "deltas": [{"function": ..., "base": n, "fault": n,
  ///                            "delta": d}, ...]}
  std::string to_json() const;
  /// Decodes a to_json() rendering (score in [0, 1]); the shares, which it
  /// does not carry, stay 0.
  static Divergence from_json(const json::Field& f);
};

/// Computes the differential profile fault-vs-baseline, keeping the `top_n`
/// largest deltas (0 = all; the score always covers every function).
Divergence profile_divergence(const Profile& base, const Profile& fault,
                              std::size_t top_n = 0);

/// Appends collapsed-stack flamegraph lines "<prefix>;<function> <count>\n"
/// for every function in the profile, in sorted function order (flat
/// profiles have depth-one stacks; the prefix carries cell/run identity).
void append_collapsed(std::string& out, const std::string& prefix,
                      const Profile& p);

}  // namespace gf::obs
