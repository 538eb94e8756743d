#include "common/random.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace gradoop {

namespace {

uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

Random::Random(uint64_t seed) {
  uint64_t state = seed;
  s0_ = SplitMix64(&state);
  s1_ = SplitMix64(&state);
  if (s0_ == 0 && s1_ == 0) s1_ = 1;  // xorshift128+ must not be all-zero
}

uint64_t Random::NextUint64() {
  uint64_t x = s0_;
  const uint64_t y = s1_;
  s0_ = y;
  x ^= x << 23;
  s1_ = x ^ y ^ (x >> 17) ^ (y >> 26);
  return s1_ + y;
}

uint64_t Random::NextUint64(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = -bound % bound;
  for (;;) {
    const uint64_t r = NextUint64();
    if (r >= threshold) return r % bound;
  }
}

int64_t Random::NextInt64(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  const uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(NextUint64());  // full range
  return lo + static_cast<int64_t>(NextUint64(span));
}

double Random::NextDouble() {
  // 53 high-quality bits into [0, 1).
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

bool Random::NextBool(double p) { return NextDouble() < p; }

uint64_t Random::NextZipf(uint64_t n, double s) {
  assert(n > 0);
  std::vector<double>& cdf = zipf_cdfs_[{n, s}];
  if (cdf.empty()) {
    cdf.resize(n);
    double sum = 0.0;
    for (uint64_t i = 0; i < n; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf[i] = sum;
    }
    for (uint64_t i = 0; i < n; ++i) cdf[i] /= sum;
  }
  const double u = NextDouble();
  const auto it = std::lower_bound(cdf.begin(), cdf.end(), u);
  return static_cast<uint64_t>(it - cdf.begin());
}

uint64_t Random::NextPowerLawDegree(uint64_t min_degree, uint64_t max_degree,
                                    double alpha) {
  assert(min_degree >= 1 && min_degree <= max_degree);
  // Inverse-CDF sampling of a continuous power law, rounded down. For
  // alpha != 1: x = (lo^(1-a) + u * (hi^(1-a) - lo^(1-a)))^(1/(1-a)).
  const double lo = static_cast<double>(min_degree);
  const double hi = static_cast<double>(max_degree) + 1.0;
  const double u = NextDouble();
  const double one_minus_a = 1.0 - alpha;
  double x;
  if (std::abs(one_minus_a) < 1e-9) {
    x = lo * std::pow(hi / lo, u);
  } else {
    const double lo_p = std::pow(lo, one_minus_a);
    const double hi_p = std::pow(hi, one_minus_a);
    x = std::pow(lo_p + u * (hi_p - lo_p), 1.0 / one_minus_a);
  }
  const uint64_t d = static_cast<uint64_t>(x);
  return std::min(std::max(d, min_degree), max_degree);
}

}  // namespace gradoop
