#include "channel/cfo.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::channel {

CfoRotator::CfoRotator(double cfo_hz, double sample_rate_hz, double initial_phase_rad)
    : cfo_hz_(cfo_hz),
      step_rad_(kTwoPi * cfo_hz / sample_rate_hz),
      phase_(initial_phase_rad) {
  FF_CHECK(sample_rate_hz > 0.0);
}

Complex CfoRotator::push(Complex x) {
  const Complex rot{std::cos(phase_), std::sin(phase_)};
  phase_ += step_rad_;
  if (phase_ > kTwoPi) phase_ -= kTwoPi;
  if (phase_ < -kTwoPi) phase_ += kTwoPi;
  return x * rot;
}

CVec CfoRotator::process(CSpan x) {
  CVec out(x.size());
  process_into(x, out);
  return out;
}

void CfoRotator::process_into(CSpan x, CMutSpan out) { process_into(x, out, ws_); }

void CfoRotator::process_into(CSpan x, CMutSpan out, dsp::kernels::Workspace& ws) {
  FF_CHECK_MSG(out.size() == x.size(),
               "CfoRotator::process_into needs out.size() == x.size(), got "
                   << out.size() << " vs " << x.size());
  if (x.empty()) return;
  // Phase recurrence stays scalar and sequential (identical to push(), wrap
  // included) so the rotation is block-size invariant; only the multiply is
  // vectorized.
  CMutSpan phasors = ws.get(0, x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    phasors[i] = {std::cos(phase_), std::sin(phase_)};
    phase_ += step_rad_;
    if (phase_ > kTwoPi) phase_ -= kTwoPi;
    if (phase_ < -kTwoPi) phase_ += kTwoPi;
  }
  dsp::kernels::rotate_phasor(x, phasors, out);
}

void CfoRotator::process_into(CSpan32 x, CMutSpan32 out, dsp::kernels::Workspace& ws) {
  FF_CHECK_MSG(out.size() == x.size(),
               "CfoRotator::process_into needs out.size() == x.size(), got "
                   << out.size() << " vs " << x.size());
  if (x.empty()) return;
  // The PHASE recurrence stays double and sample-sequential, identical to
  // the f64 paths. The per-sample PHASOR, though, comes from a double
  // complex-rotation recurrence re-anchored with one sincos every kAnchor
  // samples — not from per-sample sincos, which dominates the f64 rotator's
  // cost. Between anchors the recurrence drifts by at most ~kAnchor ulps of
  // double (~1e-13), invisible after narrowing to f32 (eps ~1.2e-7).
  // Anchors fire at absolute f32-stream positions (pos32_), so the emitted
  // bits are a function of stream position alone — the f32 rotation is
  // block-size invariant exactly like the f64 one.
  constexpr std::uint64_t kAnchor = 256;
  if (!step_trig_cached_) {
    step_cos_ = std::cos(step_rad_);
    step_sin_ = std::sin(step_rad_);
    step_trig_cached_ = true;
  }
  CMutSpan32 phasors = ws.get<float>(0, x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (pos32_ % kAnchor == 0) {
      rec_cos_ = std::cos(phase_);
      rec_sin_ = std::sin(phase_);
    }
    phasors[i] = {static_cast<float>(rec_cos_), static_cast<float>(rec_sin_)};
    const double c = rec_cos_ * step_cos_ - rec_sin_ * step_sin_;
    rec_sin_ = rec_cos_ * step_sin_ + rec_sin_ * step_cos_;
    rec_cos_ = c;
    phase_ += step_rad_;
    if (phase_ > kTwoPi) phase_ -= kTwoPi;
    if (phase_ < -kTwoPi) phase_ += kTwoPi;
    ++pos32_;
  }
  dsp::kernels::rotate_phasor(x, phasors, out);
}

void CfoRotator::set_cfo(double cfo_hz, double sample_rate_hz) {
  FF_CHECK(sample_rate_hz > 0.0);
  cfo_hz_ = cfo_hz;
  step_rad_ = kTwoPi * cfo_hz / sample_rate_hz;
  step_trig_cached_ = false;  // the f32 phasor recurrence re-derives its step
}

CVec apply_cfo(CSpan x, double cfo_hz, double sample_rate_hz, double initial_phase_rad) {
  CfoRotator rot(cfo_hz, sample_rate_hz, initial_phase_rad);
  return rot.process(x);
}

}  // namespace ff::channel
