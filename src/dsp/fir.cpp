#include "dsp/fir.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::dsp {

// Shared block-convolution core: y[i] = sum_k h[k] * ext[H + i - k] where
// ext = [H context samples | block] and H = h.size() - 1. One axpy per tap,
// taps ascending — the same serial accumulation order as a per-sample
// delay-line loop, so block and per-sample filtering agree bit for bit.
template <typename T>
void fir_core(std::type_identity_t<std::span<const std::complex<T>>> taps,
              const std::complex<T>* ext,
              std::type_identity_t<std::span<std::complex<T>>> y) {
  const std::size_t h = taps.size() - 1;
  std::fill(y.begin(), y.end(), std::complex<T>{});
  for (std::size_t k = 0; k <= h; ++k)
    kernels::axpy(taps[k], std::span<const std::complex<T>>{ext + (h - k), y.size()}, y);
}

template void fir_core<double>(CSpan, const Complex*, CMutSpan);
template void fir_core<float>(CSpan32, const Complex32*, CMutSpan32);

template <typename T>
FirFilter<T>::FirFilter(std::vector<std::complex<T>> taps)
    : taps_(std::move(taps)), delay_(taps_.size()) {
  FF_CHECK_MSG(!taps_.empty(), "FIR filter needs at least one tap");
}

template <typename T>
auto FirFilter<T>::push(Sample x) -> Sample {
  head_ = (head_ + delay_.size() - 1) % delay_.size();
  delay_[head_] = x;
  Sample acc{};
  std::size_t idx = head_;
  for (std::size_t k = 0; k < taps_.size(); ++k) {
    acc += taps_[k] * delay_[idx];
    ++idx;
    if (idx == delay_.size()) idx = 0;
  }
  return acc;
}

template <typename T>
auto FirFilter<T>::process(Span x) -> Vec {
  Vec out(x.size());
  process_into(x, out);
  return out;
}

template <typename T>
void FirFilter<T>::process_into(Span x, MutSpan out) {
  process_into(x, out, ws_);
}

template <typename T>
void FirFilter<T>::process_into(Span x, MutSpan out, kernels::Workspace& ws) {
  FF_CHECK_MSG(out.size() == x.size(),
               "FirFilter::process_into needs out.size() == x.size(), got "
                   << out.size() << " vs " << x.size());
  const std::size_t n = x.size();
  if (n == 0) return;
  const std::size_t taps = taps_.size();
  const std::size_t hist = taps - 1;
  MutSpan ext = ws.get<T>(0, hist + n);
  // Delay-line slot (head_ + k) % taps holds x[-1 - k]; lay the history out
  // chronologically so ext[hist - 1] is the sample right before x[0]. The
  // block is staged before any output is written (out may alias x).
  for (std::size_t k = 0; k < hist; ++k)
    ext[hist - 1 - k] = delay_[(head_ + k) % taps];
  std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(hist));
  fir_core<T>(taps_, ext.data(), out);
  // Refill the delay line with the newest `taps` inputs (history included
  // when the block is shorter than the filter).
  for (std::size_t k = 0; k < taps; ++k) delay_[k] = ext[hist + n - 1 - k];
  head_ = 0;
}

template <typename T>
void FirFilter<T>::reset() {
  std::fill(delay_.begin(), delay_.end(), Sample{});
  head_ = 0;
}

template <typename T>
void FirFilter<T>::set_taps(Vec taps) {
  FF_CHECK(!taps.empty());
  if (taps.size() != taps_.size()) {
    // Carry the input history across the resize: slot k of the delay line
    // holds x[n-k], so copy newest-first and zero-pad beyond the old depth.
    // (Clearing it instead — the old behavior — restarted every resized
    // filter from a cold delay line mid-stream.)
    Vec resized(taps.size(), Sample{});
    const std::size_t keep = std::min(taps.size(), delay_.size());
    for (std::size_t k = 0; k < keep; ++k)
      resized[k] = delay_[(head_ + k) % delay_.size()];
    delay_ = std::move(resized);
    head_ = 0;
  }
  taps_ = std::move(taps);
}

template class FirFilter<double>;
template class FirFilter<float>;

CVec convolve(CSpan x, CSpan h) {
  if (x.empty() || h.empty()) return {};
  CVec y(x.size() + h.size() - 1, Complex{});
  // Scatter formulation: y[n..n+K) += x[n] * h. Each output element still
  // receives its terms in ascending n, the same order as the textbook
  // gather double loop.
  for (std::size_t n = 0; n < x.size(); ++n)
    kernels::axpy(x[n], h, CMutSpan{y.data() + n, h.size()});
  return y;
}

void filter_into(CSpan h, CSpan x, CMutSpan y, kernels::Workspace& ws) {
  FF_CHECK_MSG(y.size() == x.size(),
               "filter_into needs y.size() == x.size(), got " << y.size()
                                                              << " vs " << x.size());
  FF_CHECK_MSG(!h.empty(), "filter_into needs at least one tap");
  if (x.empty()) return;
  const std::size_t hist = h.size() - 1;
  CMutSpan ext = ws.get(0, hist + x.size());
  std::fill(ext.begin(), ext.begin() + static_cast<std::ptrdiff_t>(hist), Complex{});
  std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(hist));
  fir_core(h, ext.data(), y);
}

CVec filter(CSpan h, CSpan x) {
  CVec y(x.size(), Complex{});
  thread_local kernels::Workspace ws;
  filter_into(h, x, y, ws);
  return y;
}

CVec design_lowpass(std::size_t taps, double cutoff_norm) {
  FF_CHECK(taps >= 3);
  FF_CHECK(cutoff_norm > 0.0 && cutoff_norm <= 0.5);
  CVec h(taps);
  const double centre = static_cast<double>(taps - 1) / 2.0;
  double dc = 0.0;
  for (std::size_t n = 0; n < taps; ++n) {
    const double t = static_cast<double>(n) - centre;
    const double s = std::abs(t) < 1e-12
                         ? 2.0 * cutoff_norm
                         : std::sin(kTwoPi * cutoff_norm * t) / (kPi * t);
    const double w = 0.54 + 0.46 * std::cos(kPi * t / (centre + 1.0));
    h[n] = Complex{s * w, 0.0};
    dc += h[n].real();
  }
  for (auto& v : h) v /= dc;  // unit DC gain
  return h;
}

Complex freq_response(CSpan taps, double f_norm) {
  Complex acc{0.0, 0.0};
  for (std::size_t k = 0; k < taps.size(); ++k) {
    const double ang = -kTwoPi * f_norm * static_cast<double>(k);
    acc += taps[k] * Complex{std::cos(ang), std::sin(ang)};
  }
  return acc;
}

}  // namespace ff::dsp
