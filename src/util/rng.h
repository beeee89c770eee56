// Deterministic random number generation for the whole project.
//
// Every stochastic component (workload generator, field-data synthesis,
// experiment controller) draws from an explicitly seeded Rng so that
// faultload generation and benchmark campaigns are exactly repeatable —
// repeatability is one of the faultload properties the paper validates.
#pragma once

#include <cstdint>
#include <vector>

namespace gf::util {

/// SplitMix64 — used to expand a single seed into stream seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next() noexcept;

 private:
  std::uint64_t state_;
};

/// Xoshiro256** — the workhorse generator. Fast, high quality, and fully
/// deterministic across platforms (no libc rand, no std::mt19937 distribution
/// portability traps).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit value.
  std::uint64_t next() noexcept;

  /// Uniform in [0, bound). bound must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  std::uint64_t bounded(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform double in [0, 1).
  double uniform() noexcept;

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p) noexcept;

  /// Sample an index according to (unnormalized, non-negative) weights.
  /// Returns weights.size() - 1 on degenerate input (all zero).
  std::size_t weighted(const std::vector<double>& weights) noexcept;

 private:
  std::uint64_t s_[4];
};

/// Zipf-like distribution over ranks [0, n) with exponent theta.
/// SPECWeb99-style file popularity is Zipfian; this implements the classic
/// inverse-CDF sampler with a precomputed harmonic normalizer.
class Zipf {
 public:
  Zipf(std::size_t n, double theta);

  std::size_t sample(Rng& rng) const noexcept;
  std::size_t size() const noexcept { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace gf::util
