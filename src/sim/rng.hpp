// Deterministic, seedable random number generation for the simulator.
//
// Every stochastic component of the reproduction (delay models, workload
// generators, property tests) draws from an explicitly seeded Rng so that
// every execution trace is exactly reproducible from (seed, parameters).
// Reproducibility is what lets the bench harness re-derive the paper's
// worked examples and lets failing property tests be replayed.
#pragma once

#include <cstdint>
#include <limits>
#include <random>

namespace sim {

/// A seedable pseudo-random generator with convenience samplers.
///
/// Wraps std::mt19937_64. The wrapper exists so call sites never construct
/// ad-hoc distribution objects (which would make draw order — and therefore
/// trace reproducibility — depend on incidental code layout).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform01() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Uniform integer in [lo, hi] (inclusive).
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    return std::uniform_int_distribution<std::int64_t>(lo, hi)(engine_);
  }

  /// Exponential with the given mean (not rate).
  double exponential(double mean) {
    return std::exponential_distribution<double>(1.0 / mean)(engine_);
  }

  /// Normal with the given mean and standard deviation.
  double normal(double mean, double stddev) {
    return std::normal_distribution<double>(mean, stddev)(engine_);
  }

  /// Log-normal parameterized directly by the underlying normal.
  double lognormal(double mu, double sigma) {
    return std::lognormal_distribution<double>(mu, sigma)(engine_);
  }

  /// True with probability p.
  bool bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::bernoulli_distribution(p)(engine_);
  }

  /// Raw 64-bit draw; used to derive independent child seeds.
  std::uint64_t next_u64() { return engine_(); }

  /// Derive a decorrelated child seed (for giving each node / component its
  /// own stream while keeping the whole run a function of one master seed).
  std::uint64_t fork_seed() {
    // SplitMix64 finalizer decorrelates sequential engine outputs.
    std::uint64_t z = engine_() + 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::mt19937_64 engine_;
};

}  // namespace sim
