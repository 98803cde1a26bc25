#include "dsp/resample.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/kernels/workspace.hpp"

namespace ff::dsp {

CVec resample_kernel(std::size_t factor, std::size_t half_width) {
  FF_CHECK(factor >= 1);
  FF_CHECK_MSG(half_width >= 1,
               "resample half_width must be >= 1: a zero-width kernel degenerates to "
               "a passthrough that leaves the stuffed zeros in the output");
  const auto span = static_cast<long>(half_width * factor);
  CVec taps;
  taps.reserve(static_cast<std::size_t>(2 * span + 1));
  for (long m = -span; m <= span; ++m) {
    const double x = static_cast<double>(m) / static_cast<double>(factor);
    const double s = std::abs(x) < 1e-12 ? 1.0 : std::sin(kPi * x) / (kPi * x);
    const double w =
        0.54 + 0.46 * std::cos(kPi * static_cast<double>(m) / (static_cast<double>(span) + 1.0));
    taps.push_back(Complex{s * w, 0.0});
  }
  return taps;
}

std::size_t resample_group_delay(std::size_t factor, std::size_t half_width) {
  return half_width * factor;
}

namespace {

// The input behind `hist` zeros — the zero initial conditions of a causal
// filter — laid out as the fir_block extended buffer, in a per-thread arena.
CSpan with_zero_history(CSpan x, std::size_t hist) {
  thread_local kernels::Workspace ws;
  CMutSpan ext = ws.get(0, hist + x.size());
  std::fill(ext.begin(), ext.begin() + static_cast<std::ptrdiff_t>(hist), Complex{});
  std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(hist));
  return ext;
}

}  // namespace

// Polyphase interpolation. Filtering the zero-stuffed input s (s[m*f] = x[m],
// zeros between) with h gives, at output m*f + p, the sum over k = 0..K-1 of
// h[k] * s[m*f + p - k], k ascending from +0. The terms with k = p + q*f
// (q = 0, 1, ...) read x[m - q]; every other term multiplies a finite tap by
// an exact zero, so it is +0 or -0. Skipping those terms changes no bit: the
// accumulator starts at +0 and, under round-to-nearest, a sum is -0 only
// when both addends are -0, so it is never -0; and for any accumulator that
// is not -0 (finite, infinite or NaN), adding +0 or -0 returns it unchanged.
// What is left is phase p's sub-filter g_p[q] = h[p + q*f] run over x itself,
// in the same term order — one fir_block call per phase, 1/f of the
// multiplies.
CVec upsample(CSpan x, std::size_t factor, std::size_t half_width) {
  FF_CHECK(factor >= 1);
  if (factor == 1) return CVec(x.begin(), x.end());
  const CVec kernel = resample_kernel(factor, half_width);
  const std::size_t n = x.size();
  CVec out(n * factor);
  // Phase 0 has the most sub-taps; shorter phases start later in `ext`.
  const std::size_t max_taps = (kernel.size() + factor - 1) / factor;
  const CSpan ext = with_zero_history(x, max_taps - 1);
  CVec sub, phase(n);
  for (std::size_t p = 0; p < factor; ++p) {
    sub.clear();
    for (std::size_t k = p; k < kernel.size(); k += factor) sub.push_back(kernel[k]);
    kernels::fir_block(sub, ext.subspan(max_taps - sub.size()), phase);
    for (std::size_t m = 0; m < n; ++m) out[m * factor + p] = phase[m];
  }
  return out;
}

// Decimation keeps every factor-th output of the anti-alias filter, so only
// those are computed: fir_block at stride `factor`, each kept output the
// same tap-ordered sum the full-rate filter forms.
CVec downsample(CSpan x, std::size_t factor, std::size_t half_width) {
  FF_CHECK(factor >= 1);
  if (factor == 1) return CVec(x.begin(), x.end());
  const CVec kernel = resample_kernel(factor, half_width);
  CVec out(x.size() / factor);
  kernels::fir_block(kernel, with_zero_history(x, kernel.size() - 1), out, factor);
  for (Complex& v : out) v /= static_cast<double>(factor);
  return out;
}

}  // namespace ff::dsp
