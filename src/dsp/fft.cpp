#include "dsp/fft.hpp"

#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::dsp {
namespace {

// Per-thread Stockham ping-pong scratch (2n: one staging buffer plus one
// pre-copy buffer for odd-stage-count in-place transforms), one per
// precision so mixed-precision callers on one thread don't evict each
// other's steady-state size. Thread-local so shared cached plans stay
// immutable and lock-free across workers; grows to the largest size a
// thread has used and is then allocation-free.
template <typename T>
std::complex<T>* tl_scratch(std::size_t n) {
  thread_local kernels::AlignedVec<T> buf;
  if (buf.size() < 2 * n) buf.resize(2 * n);
  return buf.data();
}

}  // namespace

bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

std::size_t next_power_of_two(std::size_t n) {
  // A zero request is always an upstream bug: the "next" power of two of
  // nothing would be 1, which then builds a size-1 plan FftPlan rejects
  // with a message pointing at the wrong layer.
  FF_CHECK_MSG(n > 0, "next_power_of_two needs a positive size");
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

template <typename T>
FftPlan<T>::FftPlan(std::size_t n) : n_(n) {
  FF_CHECK_MSG(is_power_of_two(n) && n >= 2, "FFT size must be a power of two >= 2, got " << n);
  if constexpr (std::is_same_v<T, double>) {
    bitrev_.resize(n_);
    std::size_t log2n = 0;
    while ((std::size_t{1} << log2n) < n_) ++log2n;
    for (std::size_t i = 0; i < n_; ++i) {
      std::size_t r = 0;
      for (std::size_t b = 0; b < log2n; ++b)
        if (i & (std::size_t{1} << b)) r |= std::size_t{1} << (log2n - 1 - b);
      bitrev_[i] = r;
    }
    twiddle_.resize(n_ / 2);
    inv_twiddle_.resize(n_ / 2);
    for (std::size_t k = 0; k < n_ / 2; ++k) {
      const double ang = -kTwoPi * static_cast<double>(k) / static_cast<double>(n_);
      twiddle_[k] = {std::cos(ang), std::sin(ang)};
      inv_twiddle_[k] = std::conj(twiddle_[k]);
    }
  }

  // Mixed-radix Stockham schedule: decimate-in-frequency, radix 4 whenever
  // the remaining sub-transform length allows, one radix-2 stage otherwise
  // (exactly once, when log2(n) is odd — it lands last, where m is largest
  // and the stage kernel vectorizes best). Twiddle angles are evaluated in
  // double and rounded once to T.
  const auto twiddle = [](double ang) {
    return Sample{static_cast<T>(std::cos(ang)), static_cast<T>(std::sin(ang))};
  };
  std::size_t len = n_;
  std::size_t m = 1;
  while (len > 1) {
    const std::size_t radix = (len % 4 == 0) ? 4 : 2;
    const std::size_t bf = len / radix;
    stages_.push_back({radix, bf, m, stage_tw_.size()});
    for (std::size_t j = 0; j < bf; ++j) {
      const double base = -kTwoPi * static_cast<double>(j) / static_cast<double>(len);
      stage_tw_.push_back(twiddle(base));
      if (radix == 4) {
        stage_tw_.push_back(twiddle(2.0 * base));
        stage_tw_.push_back(twiddle(3.0 * base));
      }
    }
    m *= radix;
    len = bf;
  }
  stage_tw_inv_.resize(stage_tw_.size());
  for (std::size_t i = 0; i < stage_tw_.size(); ++i)
    stage_tw_inv_[i] = std::conj(stage_tw_[i]);
}

template <typename T>
const FftPlan<T>& FftPlan<T>::cached(std::size_t n) {
  // Plans are immutable, so only the map itself needs the lock; callers keep
  // using the returned plan lock-free. Entries live for the whole process.
  static std::mutex mutex;
  static std::map<std::size_t, std::unique_ptr<FftPlan>>* cache =
      new std::map<std::size_t, std::unique_ptr<FftPlan>>();
  const std::lock_guard<std::mutex> lk(mutex);
  auto& slot = (*cache)[n];
  if (!slot) slot = std::make_unique<FftPlan>(n);
  return *slot;
}

template <typename T>
template <bool kInvert>
void FftPlan<T>::transform_radix2(MutSpan data) const {
  FF_CHECK(data.size() == n_);
  for (std::size_t i = 0; i < n_; ++i)
    if (i < bitrev_[i]) std::swap(data[i], data[bitrev_[i]]);

  const Sample* tw = kInvert ? inv_twiddle_.data() : twiddle_.data();
  for (std::size_t len = 2; len <= n_; len <<= 1) {
    const std::size_t half = len / 2;
    const std::size_t stride = n_ / len;
    for (std::size_t start = 0; start < n_; start += len) {
      for (std::size_t k = 0; k < half; ++k) {
        const Sample u = data[start + k];
        const Sample v = data[start + k + half] * tw[k * stride];
        data[start + k] = u + v;
        data[start + k + half] = u - v;
      }
    }
  }
}

template <typename T>
void FftPlan<T>::run_stages(const Sample* src, Sample* dst, Sample* scratch,
                            bool invert) const {
  // Stage s writes dst when s has the same parity as the last stage, else
  // scratch — so the final stage always lands in dst with no trailing copy.
  const std::size_t last_parity = (stages_.size() - 1) % 2;
  const Sample* tw_base = invert ? stage_tw_inv_.data() : stage_tw_.data();
  for (std::size_t s = 0; s < stages_.size(); ++s) {
    const Stage& st = stages_[s];
    Sample* out = (s % 2 == last_parity) ? dst : scratch;
    const Sample* tw = tw_base + st.tw_offset;
    if (st.radix == 4)
      kernels::radix4_stage(src, out, tw, st.butterflies, st.m, invert);
    else
      kernels::radix2_stage(src, out, tw, st.butterflies, st.m);
    src = out;
  }
}

template <typename T>
void FftPlan<T>::transform_stockham(MutSpan data, bool invert) const {
  FF_CHECK(data.size() == n_);
  Sample* scratch = tl_scratch<T>(n_);
  if (stages_.size() % 2 == 1) {
    // Odd stage count: stage 0 would write `data` while reading it. Run
    // from a copy instead (the copy moves no arithmetic — bits unchanged).
    Sample* staging = scratch + n_;
    std::memcpy(staging, data.data(), n_ * sizeof(Sample));
    run_stages(staging, data.data(), scratch, invert);
  } else {
    run_stages(data.data(), data.data(), scratch, invert);
  }
}

template <typename T>
void FftPlan<T>::forward(MutSpan data) const {
  transform_stockham(data, false);
}

template <typename T>
void FftPlan<T>::inverse(MutSpan data) const {
  transform_stockham(data, true);
  kernels::scale_real(T{1} / static_cast<T>(n_), data, data);
}

template <typename T>
void FftPlan<T>::execute_many(Span in, MutSpan out, std::size_t count,
                              bool invert) const {
  FF_CHECK_MSG(in.size() == count * n_ && out.size() == count * n_,
               "execute_many: spans must hold count*n samples");
  const bool in_place = in.data() == out.data();
  Sample* scratch = tl_scratch<T>(n_);
  const T inv_scale = T{1} / static_cast<T>(n_);
  for (std::size_t t = 0; t < count; ++t) {
    const Sample* src = in.data() + t * n_;
    MutSpan dst{out.data() + t * n_, n_};
    if (in_place) {
      transform_stockham(dst, invert);
    } else {
      run_stages(src, dst.data(), scratch, invert);
    }
    if (invert) kernels::scale_real(inv_scale, dst, dst);
  }
}

template <typename T>
void FftPlan<T>::forward_radix2(MutSpan data) const
  requires std::is_same_v<T, double>
{
  transform_radix2<false>(data);
}

template <typename T>
void FftPlan<T>::inverse_radix2(MutSpan data) const
  requires std::is_same_v<T, double>
{
  transform_radix2<true>(data);
  const double scale = 1.0 / static_cast<double>(n_);
  for (auto& x : data) x *= scale;
}

template class FftPlan<double>;
template class FftPlan<float>;

CVec fft(CSpan x) {
  FF_CHECK_MSG(!x.empty(), "fft: input must be non-empty");
  CVec out(x.begin(), x.end());
  FftPlan<>::cached(out.size()).forward(out);
  return out;
}

CVec ifft(CSpan x) {
  FF_CHECK_MSG(!x.empty(), "ifft: input must be non-empty");
  CVec out(x.begin(), x.end());
  FftPlan<>::cached(out.size()).inverse(out);
  return out;
}

CVec fft_convolve(CSpan a, CSpan b) {
  if (a.empty() || b.empty()) return {};
  const std::size_t out_len = a.size() + b.size() - 1;
  const std::size_t n = next_power_of_two(out_len);
  // Scratch spectra come from per-thread workspace slots: in steady state
  // (e.g. the canceller's repeated link convolutions) only the returned
  // vector allocates.
  thread_local kernels::Workspace ws;
  CMutSpan fa = ws.get(0, n);
  CMutSpan fb = ws.get(1, n);
  std::copy(a.begin(), a.end(), fa.begin());
  std::fill(fa.begin() + static_cast<std::ptrdiff_t>(a.size()), fa.end(), Complex{});
  std::copy(b.begin(), b.end(), fb.begin());
  std::fill(fb.begin() + static_cast<std::ptrdiff_t>(b.size()), fb.end(), Complex{});
  const FftPlan<>& plan = FftPlan<>::cached(n);
  plan.forward(fa);
  plan.forward(fb);
  kernels::cmul(fa, fb, fa);
  plan.inverse(fa);
  return CVec(fa.begin(), fa.begin() + static_cast<std::ptrdiff_t>(out_len));
}

}  // namespace ff::dsp
