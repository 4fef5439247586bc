// PCG32 pseudo-random generator: small, fast, statistically solid and fully
// deterministic across platforms — every stochastic component (trace
// synthesis, content generation, workload sampling) is seeded explicitly.
#pragma once

#include <cmath>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace edc {

/// PCG-XSH-RR 64/32 (O'Neill 2014).
class Pcg32 {
 public:
  explicit Pcg32(u64 seed = 0x853C49E6748FEA9Bull, u64 stream = 1)
      : state_(0), inc_((stream << 1) | 1u) {
    NextU32();
    state_ += Mix64(seed);
    NextU32();
  }

  u32 NextU32() {
    u64 old = state_;
    state_ = old * 6364136223846793005ull + inc_;
    u32 xorshifted = static_cast<u32>(((old >> 18) ^ old) >> 27);
    u32 rot = static_cast<u32>(old >> 59);
    return (xorshifted >> rot) | (xorshifted << ((32u - rot) & 31u));
  }

  u64 NextU64() {
    return (static_cast<u64>(NextU32()) << 32) | NextU32();
  }

  /// Uniform in [0, bound) without modulo bias (Lemire's method).
  u32 NextBounded(u32 bound) {
    if (bound == 0) return 0;
    u64 m = static_cast<u64>(NextU32()) * bound;
    u32 l = static_cast<u32>(m);
    if (l < bound) {
      u32 t = (0u - bound) % bound;
      while (l < t) {
        m = static_cast<u64>(NextU32()) * bound;
        l = static_cast<u32>(m);
      }
    }
    return static_cast<u32>(m >> 32);
  }

  /// Uniform double in [0, 1) with full 53-bit resolution.
  double NextDouble() {
    double a = static_cast<double>(NextU32() >> 5);   // 27 bits
    double b = static_cast<double>(NextU32() >> 6);   // 26 bits
    return (a * 67108864.0 + b) / 9007199254740992.0;  // / 2^53
  }

  /// Uniform double in [lo, hi).
  double NextRange(double lo, double hi) {
    return lo + (hi - lo) * NextDouble();
  }

  /// Exponential with the given mean (inter-arrival times).
  double NextExponential(double mean) {
    double u = NextDouble();
    if (u >= 1.0) u = 0.9999999999;
    return -mean * std::log(1.0 - u);
  }

  /// Standard normal via Box–Muller (one value per call; simple and
  /// deterministic, throughput is irrelevant here).
  double NextGaussian() {
    double u1 = NextDouble();
    double u2 = NextDouble();
    if (u1 <= 1e-12) u1 = 1e-12;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }

  /// Lognormal with given mu/sigma of the underlying normal.
  double NextLogNormal(double mu, double sigma) {
    return std::exp(mu + sigma * NextGaussian());
  }

  /// Pareto (heavy tail) with scale xm > 0 and shape alpha > 0.
  double NextPareto(double xm, double alpha) {
    double u = NextDouble();
    if (u >= 1.0) u = 0.9999999999;
    return xm / std::pow(1.0 - u, 1.0 / alpha);
  }

  /// Bernoulli with probability p.
  bool NextBool(double p) { return NextDouble() < p; }

  /// Geometric-ish integer Zipf sampler over [0, n) with exponent s,
  /// via inverse-CDF on a precomputed-free approximation (rejection).
  /// Callers drawing many values for one (n, s) use ZipfSampler.
  u32 NextZipf(u32 n, double s);

  /// Derive an independent generator for a sub-stream (e.g. per-LBA
  /// content): deterministic function of the parent seed and the key.
  static Pcg32 Derive(u64 seed, u64 key) {
    return Pcg32(Mix64(seed ^ Mix64(key)), Mix64(key) | 1);
  }

 private:
  u64 state_;
  u64 inc_;
};

/// The NextZipf draw for a fixed (n, s), with the per-(n, s) constants
/// computed once and, for n <= kMaxTable, each rank's acceptance terms
/// tabulated, so a draw costs one inversion instead of about ten log/exp
/// calls. Results and generator consumption are bit-identical to
/// NextZipf(n, s).
class ZipfSampler {
 public:
  static constexpr u32 kMaxTable = 1u << 16;

  ZipfSampler(u32 n, double s, bool tabulate = true);

  u32 Sample(Pcg32& rng) const;

 private:
  double HIntegral(double x) const;
  double HIntegralInv(double x) const;
  /// Probability mass of rank k under the hat, and its Zipf weight.
  double HatMass(double k) const {
    return HIntegral(k + 0.5) - HIntegral(k - 0.5);
  }
  double Weight(double k) const { return std::exp(-s_ * std::log(k)); }

  u32 n_ = 0;
  double s_ = 0.0;
  double one_minus_s_ = 1.0;
  double hx0_ = 0.0;
  double hn_ = 0.0;
  std::vector<double> hat_mass_;  // rank k at [k - 1], when tabulated
  std::vector<double> weight_;
};

}  // namespace edc
