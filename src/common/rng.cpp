#include "common/rng.hpp"

namespace edc {

u32 Pcg32::NextZipf(u32 n, double s) {
  return ZipfSampler(n, s, /*tabulate=*/false).Sample(*this);
}

// Rejection-inversion sampler (Hörmann & Derflinger) simplified for
// moderate n; adequate for workload skew modelling.
ZipfSampler::ZipfSampler(u32 n, double s, bool tabulate)
    : n_(n), s_(s), one_minus_s_(1.0 - s) {
  if (n_ <= 1 || s_ <= 0.0) return;
  hx0_ = HIntegral(0.5) - 1.0;
  hn_ = HIntegral(static_cast<double>(n_) + 0.5);
  if (!tabulate || n_ > kMaxTable) return;
  hat_mass_.resize(n_);
  weight_.resize(n_);
  for (u32 r = 0; r < n_; ++r) {
    const double k = static_cast<double>(r + 1);
    hat_mass_[r] = HatMass(k);
    weight_[r] = Weight(k);
  }
}

double ZipfSampler::HIntegral(double x) const {
  double log_x = std::log(x);
  if (std::abs(one_minus_s_) < 1e-9) return log_x;
  return (std::exp(one_minus_s_ * log_x) - 1.0) / one_minus_s_;
}

double ZipfSampler::HIntegralInv(double x) const {
  if (std::abs(one_minus_s_) < 1e-9) return std::exp(x);
  return std::exp(std::log1p(x * one_minus_s_) / one_minus_s_);
}

u32 ZipfSampler::Sample(Pcg32& rng) const {
  if (n_ <= 1) return 0;
  if (s_ <= 0.0) return rng.NextBounded(n_);
  const double nd = static_cast<double>(n_);
  const bool tabulated = !hat_mass_.empty();
  for (int iter = 0; iter < 128; ++iter) {
    double u = hx0_ + rng.NextDouble() * (hn_ - hx0_);
    double x = HIntegralInv(u);
    double k = std::floor(x + 0.5);
    if (k < 1.0) k = 1.0;
    if (k > nd) k = nd;
    // For small s the inversion can leave its domain (x is NaN); that
    // draw is rejected below, since NaN compares false.
    double h_k;
    double p_k;
    if (tabulated && !std::isnan(k)) {
      const std::size_t r = static_cast<std::size_t>(k) - 1;
      h_k = hat_mass_[r];
      p_k = weight_[r];
    } else {
      h_k = HatMass(k);
      p_k = Weight(k);
    }
    if (rng.NextDouble() * h_k <= p_k) {
      return static_cast<u32>(k) - 1;
    }
  }
  return 0;  // Overwhelmingly unlikely; keep determinism over perfection.
}

}  // namespace edc
