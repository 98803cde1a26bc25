// FIR filtering: a streaming sample-by-sample filter (used by the relay
// pipeline, where causality and per-sample latency matter) and block helpers.
// Every block path runs on one output-stationary kernel, kernels::fir_block.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <vector>

#include "common/types.hpp"
#include "dsp/kernels/workspace.hpp"

namespace ff::dsp {

/// Streaming causal FIR filter on samples of precision T (double, or float
/// for the mixed-precision fast paths — docs/PERFORMANCE.md, "The float32
/// family"). Both precisions run the one body below: same accumulation
/// order, same history semantics. Design helpers (design_lowpass, taps from
/// a channel model) stay double; convert taps once with
/// kernels::to_precision at configure time.
///
/// y[n] = sum_k h[k] x[n-k].  The filter owns a circular delay line; each
/// push() consumes one input sample and produces one output sample with zero
/// look-ahead, matching hardware tap-line semantics.
template <typename T = double>
class FirFilter {
 public:
  using Sample = std::complex<T>;
  using Vec = std::vector<Sample>;
  using Span = std::span<const Sample>;
  using MutSpan = std::span<Sample>;

  // Spelled out rather than Vec so class template argument deduction sees
  // T: `FirFilter fir(taps)` deduces the precision from the taps.
  explicit FirFilter(std::vector<std::complex<T>> taps);

  /// Feed one input sample, get the filter output at this instant.
  Sample push(Sample x);

  /// Filter a whole block (stateful: continues from previous pushes).
  Vec process(Span x);

  /// Filter a whole block into a caller-owned buffer (stateful). `out` must
  /// be exactly x.size() samples and may alias `x` (in-place filtering): the
  /// input is staged into an extended history+block buffer before any output
  /// is written. This is the allocation-free path the streaming hot loop
  /// uses to reuse one buffer per block.
  ///
  /// Implementation: fir_core over the extended buffer — each output summed
  /// in registers, taps ascending from +0, the exact accumulation order of
  /// push(), so a block-filtered stream is bit-identical to a
  /// sample-at-a-time one at any block size.
  void process_into(Span x, MutSpan out);

  /// Same, with scratch drawn from a caller-owned Workspace (T slot 0) —
  /// lets an owning pipeline/element share one arena across stages instead
  /// of each filter holding its own.
  void process_into(Span x, MutSpan out, kernels::Workspace& ws);

  /// Reset the delay line to zeros (taps are kept).
  void reset();

  /// Replace the taps (live retuning, as in the canceller and the drifting
  /// streaming channel). The input history is preserved: when the tap count
  /// changes, the most recent min(old, new) samples carry over into the
  /// resized delay line (older history is zero-padded), so a retune in the
  /// middle of a stream never re-introduces a cold-start transient.
  void set_taps(Vec taps);

  const Vec& taps() const { return taps_; }
  std::size_t order() const { return taps_.size(); }

 private:
  Vec taps_;
  Vec delay_;             // circular buffer of past inputs
  std::size_t head_ = 0;  // index of the most recent sample
  kernels::Workspace ws_;  // scratch for the two-argument process_into
};

/// Stateless linear convolution (output length = x.size() + h.size() - 1).
CVec convolve(CSpan x, CSpan h);

/// Stateless "same-length" causal filtering: y[n] = sum_k h[k] x[n-k],
/// zero initial conditions, output trimmed to x.size().
CVec filter(CSpan h, CSpan x);

/// Allocation-free form of `filter`: writes into `y` (same length as `x`,
/// may alias it), scratch from `ws` slot 0. This is the core the full-duplex
/// cancellation hot path (`CancellationStack::apply_into`) runs on; `filter`
/// and the streaming `FirFilter` block path produce bit-identical samples
/// for identical histories, which the canceller's batch-vs-stream
/// equivalence test relies on.
void filter_into(CSpan h, CSpan x, CMutSpan y, kernels::Workspace& ws);

/// Lowest-level block-convolution core shared by every FIR path (FirFilter,
/// filter_into, the digital canceller's lookahead form):
///   y[i] = sum_k h[k] * ext[(h.size()-1) + i - k]
/// where `ext` holds (h.size()-1) leading context samples followed by (at
/// least) y.size() block samples. Callers choose what the context is — real
/// filter history, zeros, or future samples for an anti-causal filter. One
/// kernels::fir_block call: each output sums its taps in order from +0, so
/// every caller inherits the same accumulation order (and therefore
/// bit-identical results for identical `ext` contents). `y` must not overlap
/// `ext`. T is deduced from `ext`.
template <typename T>
void fir_core(std::type_identity_t<std::span<const std::complex<T>>> h,
              const std::complex<T>* ext,
              std::type_identity_t<std::span<std::complex<T>>> y);

/// Frequency response of a sample-spaced FIR at normalized frequency
/// `f_norm` in cycles/sample (i.e. H(e^{j 2 pi f_norm})).
Complex freq_response(CSpan taps, double f_norm);

/// Linear-phase low-pass design (Hamming-windowed sinc): `taps` coefficients
/// with cutoff `cutoff_norm` (cycles/sample, 0 < cutoff <= 0.5), unit DC
/// gain, group delay (taps-1)/2 samples. Odd tap counts give integer delay.
CVec design_lowpass(std::size_t taps, double cutoff_norm);

}  // namespace ff::dsp
