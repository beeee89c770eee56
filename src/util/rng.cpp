#include "util/rng.h"

#include <algorithm>
#include <cmath>

namespace gf::util {

std::uint64_t SplitMix64::next() noexcept {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
  // Avoid the all-zero state (cannot occur from SplitMix64 in practice, but
  // cheap to guarantee).
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::bounded(std::uint64_t bound) noexcept {
  if (bound <= 1) return 0;
  // Rejection sampling: keep the top of the range uniform.
  const std::uint64_t threshold = -bound % bound;
  for (;;) {
    const std::uint64_t r = next();
    if (r >= threshold) return r % bound;
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(bounded(span));
}

double Rng::uniform() noexcept {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

bool Rng::chance(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::size_t Rng::weighted(const std::vector<double>& weights) noexcept {
  double total = 0.0;
  for (double w : weights) total += std::max(0.0, w);
  if (total <= 0.0 || weights.empty()) {
    return weights.empty() ? 0 : weights.size() - 1;
  }
  double x = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    x -= std::max(0.0, weights[i]);
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

Zipf::Zipf(std::size_t n, double theta) {
  if (n == 0) n = 1;
  cdf_.resize(n);
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sum += 1.0 / std::pow(static_cast<double>(i + 1), theta);
    cdf_[i] = sum;
  }
  for (auto& c : cdf_) c /= sum;
}

std::size_t Zipf::sample(Rng& rng) const noexcept {
  const double u = rng.uniform();
  auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<std::size_t>(it - cdf_.begin());
}

}  // namespace gf::util
