#include "dsp/noise.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"

namespace ff::dsp {

CVec awgn(Rng& rng, std::size_t n, double power_mw) {
  FF_CHECK_MSG(std::isfinite(power_mw) && power_mw >= 0.0,
               "awgn noise power must be finite and non-negative, got " << power_mw);
  CVec out(n);
  for (auto& s : out) s = rng.cgaussian(power_mw);
  return out;
}

CVec awgn_dbm(Rng& rng, std::size_t n, double power_dbm) {
  return awgn(rng, n, power_from_db(power_dbm));
}

void add_awgn(Rng& rng, CMutSpan x, double power_mw) {
  FF_CHECK_MSG(std::isfinite(power_mw) && power_mw >= 0.0,
               "awgn noise power must be finite and non-negative, got " << power_mw);
  for (auto& s : x) s += rng.cgaussian(power_mw);
}

void set_mean_power(CMutSpan x, double power_mw) {
  const double p = mean_power(x);
  if (p <= 0.0) return;
  const double g = std::sqrt(power_mw / p);
  for (auto& s : x) s *= g;
}

void scale(CMutSpan x, double amplitude) {
  for (auto& s : x) s *= amplitude;
}

void accumulate(CMutSpan a, CSpan b) {
  FF_CHECK(a.size() == b.size());
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += b[i];
}

}  // namespace ff::dsp
