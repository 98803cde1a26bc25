#include "channel/multipath.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/fractional_delay.hpp"

namespace ff::channel {

MultipathChannel::MultipathChannel(std::vector<PathTap> taps, double carrier_hz)
    : taps_(std::move(taps)), carrier_hz_(carrier_hz) {
  FF_CHECK_MSG(carrier_hz_ > 0.0, "carrier frequency must be positive");
  for (const auto& t : taps_) FF_CHECK_MSG(t.delay_s >= 0.0, "negative path delay");
}

MultipathChannel MultipathChannel::single_path(double amplitude, double delay_s,
                                               double carrier_hz) {
  return MultipathChannel({{delay_s, Complex{amplitude, 0.0}}}, carrier_hz);
}

double MultipathChannel::min_delay_s() const {
  if (taps_.empty()) return 0.0;
  double d = taps_[0].delay_s;
  for (const auto& t : taps_) d = std::min(d, t.delay_s);
  return d;
}

double MultipathChannel::max_delay_s() const {
  double d = 0.0;
  for (const auto& t : taps_) d = std::max(d, t.delay_s);
  return d;
}

double MultipathChannel::power_gain() const {
  double p = 0.0;
  for (const auto& t : taps_) p += std::norm(t.amp);
  return p;
}

double MultipathChannel::power_gain_db() const {
  const double p = power_gain();
  return p > 0.0 ? db_from_power(p) : -400.0;
}

Complex MultipathChannel::response(double f_bb_hz) const {
  Complex acc{0.0, 0.0};
  for (const auto& t : taps_) {
    const double phase = -kTwoPi * (carrier_hz_ + f_bb_hz) * t.delay_s;
    acc += t.amp * Complex{std::cos(phase), std::sin(phase)};
  }
  return acc;
}

CVec MultipathChannel::response(RSpan f_bb_hz) const {
  CVec out(f_bb_hz.size());
  for (std::size_t i = 0; i < f_bb_hz.size(); ++i) out[i] = response(f_bb_hz[i]);
  return out;
}

CVec MultipathChannel::to_fir(double sample_rate, double delay_ref_s,
                              std::size_t sinc_half_width) const {
  FF_CHECK(sample_rate > 0.0);
  if (taps_.empty()) return {Complex{}};
  FF_CHECK_MSG(delay_ref_s <= min_delay_s() + 1e-15,
               "delay reference later than earliest path");
  CVec fir;
  for (const auto& t : taps_) {
    const double d = (t.delay_s - delay_ref_s) * sample_rate;
    const double carrier_phase = -kTwoPi * carrier_hz_ * t.delay_s;
    const Complex gain = t.amp * Complex{std::cos(carrier_phase), std::sin(carrier_phase)};
    const CVec kernel = dsp::design_fractional_delay(d, sinc_half_width);
    if (kernel.size() > fir.size()) fir.resize(kernel.size(), Complex{});
    for (std::size_t i = 0; i < kernel.size(); ++i) fir[i] += gain * kernel[i];
  }
  return fir;
}

CVec MultipathChannel::apply(CSpan x, double sample_rate, double delay_ref_s) const {
  if (taps_.empty()) return CVec(x.size(), Complex{});
  return dsp::filter(to_fir(sample_rate, delay_ref_s), x);
}

MultipathChannel MultipathChannel::scaled(double amplitude) const {
  std::vector<PathTap> taps = taps_;
  for (auto& t : taps) t.amp *= amplitude;
  return MultipathChannel(std::move(taps), carrier_hz_);
}

MultipathChannel MultipathChannel::delayed(double extra_delay_s) const {
  std::vector<PathTap> taps = taps_;
  for (auto& t : taps) t.delay_s += extra_delay_s;
  return MultipathChannel(std::move(taps), carrier_hz_);
}

MultipathChannel MultipathChannel::combine(const MultipathChannel& a,
                                           const MultipathChannel& b) {
  FF_CHECK(a.carrier_hz_ == b.carrier_hz_ || a.empty() || b.empty());
  std::vector<PathTap> taps = a.taps_;
  taps.insert(taps.end(), b.taps_.begin(), b.taps_.end());
  return MultipathChannel(std::move(taps), a.empty() ? b.carrier_hz_ : a.carrier_hz_);
}

}  // namespace ff::channel
