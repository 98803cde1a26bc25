// Digital self-interference cancellation.
//
// The paper's second key invention (Sec. 3.3): prior full-duplex digital
// cancellers are NON-CAUSAL — they buffer received samples so the filter can
// "peek ahead" at transmitted samples that bracket the current instant.
// Buffering means delay (5 samples at 100 Msps = 50 ns), which blows the
// relay's CP budget. FF's canceller is strictly CAUSAL: it reconstructs the
// residual self-interference using only already-transmitted samples, at the
// cost of more taps, and adds zero delay to the receive path.
//
// Both variants are implemented so the ablation benches can show the
// trade-off (causal: more taps, 0 ns; non-causal: fewer taps, +lookahead).
#pragma once

#include <cstddef>

#include "common/types.hpp"
#include "dsp/kernels/workspace.hpp"

namespace ff {
class MetricsRegistry;
}

namespace ff::fd {

/// Least-squares FIR estimation: find h (length `taps`, with `lookahead`
/// anti-causal taps) minimizing || y[n] - sum_k h[k] x[n - k + lookahead] ||.
/// With lookahead = 0 the filter is strictly causal in x.
/// Uses rows n in [taps, x.size()) so every row has full history.
CVec estimate_fir_ls(CSpan x, CSpan y, std::size_t taps, std::size_t lookahead = 0,
                     double ridge = 1e-9);

/// Fast variant using the autocorrelation (normal-equations) method: builds
/// the Hermitian Toeplitz Gram matrix from lag correlations in O(N*taps) and
/// solves a taps x taps system. Statistically equivalent to estimate_fir_ls
/// for N >> taps; used for the long training records real tuning needs.
CVec estimate_fir_ls_fast(CSpan x, CSpan y, std::size_t taps, std::size_t lookahead = 0,
                          double ridge = 1e-9);

struct DigitalCancellerConfig {
  std::size_t taps = 120;       // the paper's 120-tap causal filter
  std::size_t lookahead = 0;    // 0 = causal (FF); >0 = prior-work buffering
  double ridge = 1e-9;
  /// Optional metrics sink: train() counts fits and records the configured
  /// tap budget (`fd.digital.trainings`, `fd.digital.taps`). Default off.
  MetricsRegistry* metrics = nullptr;
};

/// Trains on a (tx, residual) record and then subtracts its reconstruction
/// of the self-interference from the receive stream.
class DigitalCanceller {
 public:
  explicit DigitalCanceller(DigitalCancellerConfig cfg = {});

  const DigitalCancellerConfig& config() const { return cfg_; }
  const CVec& taps() const { return taps_; }
  bool trained() const { return !taps_.empty(); }

  /// Fit the canceller: `tx` is the known transmitted stream, `residual` the
  /// receive stream after analog cancellation (during a training window —
  /// ideally dominated by self-interference or probe noise).
  void train(CSpan tx, CSpan residual);

  /// Subtract the reconstructed self-interference: returns
  /// residual[n] - sum_k h[k] tx[n - k + lookahead].
  /// With lookahead > 0 the output is only valid where future tx exists; the
  /// final `lookahead` samples use zero-padded tx (mirrors the real buffer
  /// flush).
  CVec cancel(CSpan tx, CSpan rx) const;

  /// Allocation-free form of cancel(): writes into `out` (same length as
  /// `rx`, exact aliasing allowed), scratch from `ws` (slot 0: zero-padded
  /// tx, slot 1: reconstruction). Runs on dsp::fir_core over the padded
  /// buffer [zeros(taps-1-lookahead) | tx | zeros(lookahead)], so batch and
  /// streaming cancellation share one accumulation order bit for bit.
  void cancel_into(CSpan tx, CSpan rx, CMutSpan out,
                   dsp::kernels::Workspace& ws) const;

  /// Receive-path delay this canceller adds (samples): its lookahead.
  std::size_t added_delay_samples() const { return cfg_.lookahead; }

 private:
  DigitalCancellerConfig cfg_;
  CVec taps_;
};

}  // namespace ff::fd
