#include "dsp/spectrum.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"

namespace ff::dsp {

std::vector<double> welch_psd(CSpan x, const WelchConfig& cfg) {
  FF_CHECK(is_power_of_two(cfg.segment));
  FF_CHECK(cfg.overlap < cfg.segment);
  FF_CHECK_MSG(x.size() >= cfg.segment, "signal shorter than one Welch segment");

  // Hann window, normalized so the PSD integrates to the mean power.
  std::vector<double> window(cfg.segment);
  double window_power = 0.0;
  for (std::size_t i = 0; i < cfg.segment; ++i) {
    window[i] = 0.5 - 0.5 * std::cos(kTwoPi * static_cast<double>(i) /
                                     static_cast<double>(cfg.segment));
    window_power += window[i] * window[i];
  }

  const dsp::FftPlan<>& plan = dsp::FftPlan<>::cached(cfg.segment);
  const std::size_t hop = cfg.segment - cfg.overlap;
  std::vector<double> psd(cfg.segment, 0.0);
  std::size_t segments = 0;
  CVec buf(cfg.segment);
  for (std::size_t start = 0; start + cfg.segment <= x.size(); start += hop) {
    for (std::size_t i = 0; i < cfg.segment; ++i) buf[i] = x[start + i] * window[i];
    plan.forward(buf);
    for (std::size_t i = 0; i < cfg.segment; ++i) psd[i] += std::norm(buf[i]);
    ++segments;
  }
  FF_CHECK(segments > 0);
  const double norm =
      1.0 / (static_cast<double>(segments) * window_power * static_cast<double>(cfg.segment));
  for (auto& p : psd) p *= norm;
  return psd;
}

double band_power(const std::vector<double>& psd, double sample_rate_hz, double f_lo_hz,
                  double f_hi_hz) {
  FF_CHECK(f_lo_hz <= f_hi_hz);
  const std::size_t n = psd.size();
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    // Bin i covers frequency i*fs/n, wrapped to (-fs/2, fs/2].
    double f = static_cast<double>(i) * sample_rate_hz / static_cast<double>(n);
    if (f > sample_rate_hz / 2.0) f -= sample_rate_hz;
    if (f >= f_lo_hz && f <= f_hi_hz) acc += psd[i];
  }
  return acc;
}

double oob_power_ratio_db(CSpan x, double sample_rate_hz, double occupied_bw_hz,
                          const WelchConfig& cfg) {
  const auto psd = welch_psd(x, cfg);
  const double in_band = band_power(psd, sample_rate_hz, -occupied_bw_hz / 2.0,
                                    occupied_bw_hz / 2.0);
  double total = 0.0;
  for (const double p : psd) total += p;
  const double oob = std::max(total - in_band, 0.0);
  if (in_band <= 0.0) return 400.0;
  if (oob <= 0.0) return -400.0;
  return db_from_power(oob / in_band);
}

}  // namespace ff::dsp
