#include "dsp/correlation.hpp"

#include <cmath>

#include "common/check.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::dsp {

std::vector<double> normalized_correlation(CSpan x, CSpan ref) {
  if (x.size() < ref.size() || ref.empty()) return {};
  const double ref_norm = std::sqrt(kernels::magsq_accum(ref));

  std::vector<double> out(x.size() - ref.size() + 1, 0.0);
  // Running window energy of x: the sliding add/subtract recurrence must stay
  // serial (each window's value depends on the previous one), so only the
  // initial window uses the block reduction.
  double win_energy = kernels::magsq_accum(CSpan{x.data(), ref.size()});
  for (std::size_t n = 0; n < out.size(); ++n) {
    const Complex acc = kernels::cdot_conj(ref, CSpan{x.data() + n, ref.size()});
    const double denom = ref_norm * std::sqrt(std::max(win_energy, 1e-30));
    out[n] = std::abs(acc) / denom;
    if (n + ref.size() < x.size())
      win_energy += std::norm(x[n + ref.size()]) - std::norm(x[n]);
  }
  return out;
}

std::size_t argmax(std::span<const double> v) {
  FF_CHECK(!v.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < v.size(); ++i)
    if (v[i] > v[best]) best = i;
  return best;
}

double mean_power(CSpan x) {
  if (x.empty()) return 0.0;
  return kernels::magsq_accum(x) / static_cast<double>(x.size());
}

double mean_power_db(CSpan x) {
  const double p = mean_power(x);
  if (p <= 0.0) return -400.0;
  return 10.0 * std::log10(p);
}

double evm_power_ratio(CSpan x, CSpan ref) {
  FF_CHECK(x.size() == ref.size());
  double err = 0.0, sig = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    err += std::norm(x[i] - ref[i]);
    sig += std::norm(ref[i]);
  }
  if (sig <= 0.0) return 0.0;
  return err / sig;
}

}  // namespace ff::dsp
