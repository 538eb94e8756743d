#ifndef GRADOOP_COMMON_RANDOM_H_
#define GRADOOP_COMMON_RANDOM_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

namespace gradoop {

// Deterministic 64-bit PRNG (splitmix64 seeded xorshift128+). All synthetic
// data in the repository is generated through this class so that tests and
// benchmarks are reproducible across runs and platforms.
class Random {
 public:
  explicit Random(uint64_t seed);

  // Uniform in [0, 2^64).
  uint64_t NextUint64();
  // Uniform in [0, bound). bound must be > 0.
  uint64_t NextUint64(uint64_t bound);
  // Uniform in [lo, hi], inclusive. Requires lo <= hi.
  int64_t NextInt64(int64_t lo, int64_t hi);
  // Uniform in [0, 1).
  double NextDouble();
  // True with probability p.
  bool NextBool(double p);

  // Samples an index in [0, n) under a Zipf distribution with exponent s:
  // P(i) ~ 1/(i+1)^s. Used for skewed property values (e.g. first names).
  // Precomputes the CDF on first use for a given (n, s) and keeps it, so
  // interleaving draws over several (n, s) pairs costs O(log n) each.
  uint64_t NextZipf(uint64_t n, double s);

  // Samples a vertex degree from a discrete power law with exponent alpha
  // on [min_degree, max_degree]: P(d) ~ d^-alpha. Used for `knows` degrees,
  // matching the LDBC generator's power-law degree distribution.
  uint64_t NextPowerLawDegree(uint64_t min_degree, uint64_t max_degree,
                              double alpha);

 private:
  uint64_t s0_;
  uint64_t s1_;

  // Zipf CDF per (n, s) pair requested so far.
  std::map<std::pair<uint64_t, double>, std::vector<double>> zipf_cdfs_;
};

}  // namespace gradoop

#endif  // GRADOOP_COMMON_RANDOM_H_
