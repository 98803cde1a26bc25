#include "fullduplex/analog_canceller.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "linalg/matrix.hpp"

namespace ff::fd {

AnalogCanceller::AnalogCanceller(AnalogCancellerConfig cfg) : cfg_(cfg) {
  FF_CHECK(cfg_.taps > 0);
  delays_.resize(static_cast<std::size_t>(cfg_.taps));
  for (int k = 0; k < cfg_.taps; ++k)
    delays_[static_cast<std::size_t>(k)] = cfg_.first_tap_delay_s + k * cfg_.tap_spacing_s;
  gains_.assign(delays_.size(), 0.0);
}

double AnalogCanceller::quantize(double gain) const {
  const double max_gain = amplitude_from_db(cfg_.insertion_gain_db);
  const double min_gain = amplitude_from_db(cfg_.insertion_gain_db - cfg_.attenuator_range_db);
  if (gain < min_gain / 2.0) return 0.0;  // attenuator switched out
  const double clamped = std::clamp(gain, min_gain, max_gain);
  // Snap the attenuation to the 0.25 dB grid.
  const double atten_db = cfg_.insertion_gain_db - db_from_amplitude(clamped);
  const double snapped = std::round(atten_db / cfg_.attenuator_step_db) * cfg_.attenuator_step_db;
  return amplitude_from_db(cfg_.insertion_gain_db - std::clamp(snapped, 0.0, cfg_.attenuator_range_db));
}

double AnalogCanceller::tune(CSpan si_response, RSpan f_grid_hz) {
  FF_CHECK(si_response.size() == f_grid_hz.size());
  const std::size_t n_f = f_grid_hz.size();
  const std::size_t n_k = delays_.size();
  FF_CHECK(2 * n_f >= n_k);

  // Basis response of tap k at frequency i.
  const auto basis = [&](std::size_t i, std::size_t k) {
    const double ang = -kTwoPi * (cfg_.carrier_hz + f_grid_hz[i]) * delays_[k];
    return Complex{std::cos(ang), std::sin(ang)};
  };

  // Real-valued least squares over the stacked re/im system (gains are
  // real), with an active-set loop enforcing non-negativity: repeatedly
  // drop the most negative gain from the active set and re-solve.
  std::vector<bool> active(n_k, true);
  std::vector<double> raw(n_k, 0.0);
  for (int round = 0; round < static_cast<int>(n_k); ++round) {
    std::vector<std::size_t> cols;
    for (std::size_t k = 0; k < n_k; ++k)
      if (active[k]) cols.push_back(k);
    if (cols.empty()) break;
    linalg::Matrix a(2 * n_f, cols.size()), b(2 * n_f, 1);
    for (std::size_t i = 0; i < n_f; ++i) {
      for (std::size_t c = 0; c < cols.size(); ++c) {
        const Complex e = basis(i, cols[c]);
        a(i, c) = Complex{e.real(), 0.0};
        a(n_f + i, c) = Complex{e.imag(), 0.0};
      }
      b(i, 0) = Complex{si_response[i].real(), 0.0};
      b(n_f + i, 0) = Complex{si_response[i].imag(), 0.0};
    }
    const linalg::Matrix g = linalg::least_squares(a, b, 1e-12);
    std::fill(raw.begin(), raw.end(), 0.0);
    double most_negative = 0.0;
    std::size_t worst = n_k;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      raw[cols[c]] = g(c, 0).real();
      if (raw[cols[c]] < most_negative) {
        most_negative = raw[cols[c]];
        worst = cols[c];
      }
    }
    if (worst == n_k) break;  // all non-negative: done
    active[worst] = false;
    raw[worst] = 0.0;
  }
  for (std::size_t k = 0; k < n_k; ++k) gains_[k] = quantize(raw[k]);

  // One greedy polish pass per tap over the quantization grid: with the
  // other taps frozen, pick the attenuator setting minimizing the residual.
  auto residual_power = [&] {
    double acc = 0.0;
    for (std::size_t i = 0; i < n_f; ++i) {
      Complex r = si_response[i];
      for (std::size_t k = 0; k < n_k; ++k) r -= gains_[k] * basis(i, k);
      acc += std::norm(r);
    }
    return acc;
  };

  const long max_steps =
      std::lround(cfg_.attenuator_range_db / cfg_.attenuator_step_db);
  for (int pass = 0; pass < 4; ++pass) {
    bool changed = false;
    for (std::size_t k = 0; k < n_k; ++k) {
      double best_gain = gains_[k];
      double best_res = residual_power();
      // Candidate settings: off, plus the +-6 dB neighbourhood of the
      // current attenuation (the whole range when the tap is off).
      const double current_atten =
          gains_[k] > 0.0 ? cfg_.insertion_gain_db - db_from_amplitude(gains_[k])
                          : cfg_.attenuator_range_db / 2.0;
      const long centre = std::lround(current_atten / cfg_.attenuator_step_db);
      const long radius =
          gains_[k] > 0.0 ? std::lround(6.0 / cfg_.attenuator_step_db) : max_steps;
      const long lo = std::max<long>(0, centre - radius);
      const long hi = std::min<long>(max_steps, centre + radius);
      for (long s = lo - 1; s <= hi; ++s) {
        const double cand =
            s < lo ? 0.0
                   : amplitude_from_db(cfg_.insertion_gain_db -
                                       static_cast<double>(s) * cfg_.attenuator_step_db);
        const double saved = gains_[k];
        gains_[k] = cand;
        const double res = residual_power();
        if (res < best_res) {
          best_res = res;
          best_gain = cand;
        }
        gains_[k] = saved;
      }
      if (best_gain != gains_[k]) changed = true;
      gains_[k] = best_gain;
    }
    if (!changed) break;
  }

  double si_power = 0.0;
  for (std::size_t i = 0; i < n_f; ++i) si_power += std::norm(si_response[i]);
  return si_power > 0.0 ? residual_power() / si_power : 0.0;
}

channel::MultipathChannel AnalogCanceller::as_channel() const {
  std::vector<channel::PathTap> taps;
  for (std::size_t k = 0; k < delays_.size(); ++k)
    if (gains_[k] > 0.0) taps.push_back({delays_[k], Complex{gains_[k], 0.0}});
  return channel::MultipathChannel(std::move(taps), cfg_.carrier_hz);
}

}  // namespace ff::fd
