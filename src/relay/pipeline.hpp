// Sample-level relay forward path (Sec. 4.1 + 4.3) as one composite filter.
//
// The relay's signal chain is CFO remove -> digital CNF prefilter h ->
// CFO restore -> amplify g and analog CNF rotation r -> TX reconstruction
// filter t -> ADC/DAC delay. The CFO trick is what lets the relay process
// at zero offset while the destination still sees one consistent offset
// across the direct and relayed paths (Sec. 4.1). Remove and restore
// advance in lockstep from the same phase, so with w = 2 pi cfo / fs:
//
//   e^{jwn} sum_k h[k] e^{-jw(n-k)} x[n-k] = sum_k (h[k] e^{jwk}) x[n-k]
//
// and every stage is linear and time-invariant: the whole chain is the one
// FIR
//
//   c = g r ((h . e^{jwk}) * t)                      (restore_cfo = true)
//
// built once in double at construction, narrowed to the configured
// precision, followed by the delay FIFO. With restore_cfo = false (the
// Sec. 4.1 ablation) the remove rotator has no partner; pushing it through
// t the same way gives the same FIR with modulated TX taps,
//
//   y[n] = e^{-jwn} sum_m c[m] x[n-m],  c = g r ((h . e^{jwk}) * (t . e^{jwm}))
//
// i.e. the FIR followed by one output rotator. Latency at the stream rate is
// the FIFO (ADC/DAC + artificial buffering) plus the filter's spread; the
// folded arithmetic adds none.
#pragma once

#include "channel/cfo.hpp"
#include "common/types.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/workspace.hpp"
#include "phy/params.hpp"

namespace ff {
class MetricsRegistry;
}

namespace ff::relay {

struct PipelineConfig {
  double sample_rate_hz = 20e6;
  std::size_t adc_dac_delay_samples = 1;   // 50 ns at 20 Msps (paper's figure)
  std::size_t extra_buffer_samples = 0;    // artificial latency (Fig. 16 sweeps)
  double cfo_hz = 0.0;                     // relay's estimate of the source CFO
  bool restore_cfo = true;                 // Sec. 4.1 (ablation: false)
  CVec prefilter{Complex{1.0, 0.0}};       // digital CNF taps
  Complex analog_rotation{1.0, 0.0};       // analog CNF response at carrier
  double gain_db = 0.0;
  /// DAC reconstruction / TX low-pass filter. When non-empty it REPLACES
  /// the plain ADC/DAC delay FIFO: its group delay ((taps-1)/2 samples)
  /// should equal adc_dac_delay_samples, since in real hardware those
  /// filters ARE where the converter latency lives. It is what keeps
  /// amplified out-of-band receiver noise from reaching the antenna.
  CVec tx_filter{};
  /// Scrub non-finite input samples, forwarding 0 in their place. A single
  /// NaN from a glitching converter would otherwise live in the FIR delay
  /// lines forever and poison every later output; zeroing is what real
  /// front-ends do (a clamped/blanked sample) and bounds the damage to the
  /// filter memory around the glitch. Scrubbed samples are counted as
  /// `relay.pipeline.scrubbed` when metrics is set.
  bool scrub_nonfinite = true;
  /// Optional metrics sink: construction records the pipeline's worst-case
  /// forward delay (`relay.pipeline.max_delay_s`) and prefilter tap count;
  /// process() counts forwarded samples. Default nullptr records nothing.
  MetricsRegistry* metrics = nullptr;
  /// Arithmetic precision of the forward path. kF32 converts each block to
  /// float32 once on entry, runs the composite FIR (and output rotator) on
  /// the f32 kernel family (double the SIMD lanes), and widens once on exit
  /// — the mixed-precision fast path (docs/PERFORMANCE.md, "The float32
  /// family"). The composite taps are built in double and narrowed once; the
  /// rotator's phase recurrence stays double; only the sample stream
  /// narrows. f32 output is deterministic (its own pinned checksum family)
  /// but numerically distinct from kF64, the accuracy reference.
  Precision precision = Precision::kF64;
};

/// Streaming forward-path processor. Push received (already SI-cancelled)
/// samples, get transmit samples with all latencies applied.
class ForwardPipeline {
 public:
  explicit ForwardPipeline(PipelineConfig cfg);

  const PipelineConfig& config() const { return cfg_; }

  /// Bulk (integer-sample) delay of the pipeline: ADC/DAC + extra buffering.
  /// The pre-filter's delay spread rides on top via its tap positions.
  std::size_t bulk_delay_samples() const {
    return cfg_.adc_dac_delay_samples + cfg_.extra_buffer_samples;
  }

  /// Worst-case extra delay of any relayed signal component (seconds):
  /// bulk delay plus the last pre-filter tap.
  double max_delay_s() const;

  /// One sample through the forward path: a 1-sample process_into(), so a
  /// pushed stream is bit-identical to any blocking of it.
  Complex push(Complex rx);
  CVec process(CSpan rx);

  /// Process a block into a caller-owned buffer (stateful). `out` must be
  /// exactly rx.size() samples and may alias `rx`: the streaming runtime's
  /// allocation-free block path. Metrics accounting matches process().
  ///
  /// Runs three passes over the block: scrub (a copy only for a block that
  /// holds a non-finite sample), the composite FIR (plus the output rotator
  /// when restore_cfo is false), delay FIFO. Every pass is causal, so the
  /// output is invariant to how the stream is cut into blocks.
  /// Scratch comes from the pipeline-owned Workspace; after warmup no heap
  /// allocation happens here (`ff.alloc.*` telemetry and
  /// tests/kernels_test.cpp hold that).
  void process_into(CSpan rx, CMutSpan out);

  /// Non-finite input samples zeroed so far (see PipelineConfig::scrub_nonfinite).
  std::uint64_t scrubbed_samples() const { return scrubbed_; }

  /// Install (or remove, nullptr) a telemetry sink after construction — the
  /// declarative stream path builds the pipeline before a registry exists
  /// and injects it via Graph::set_metrics. Transitioning from no registry
  /// to one records the same construction-time gauges the metrics-carrying
  /// constructor would have; re-installing the current registry is a no-op
  /// (no double-counted instances).
  void set_metrics(MetricsRegistry* metrics);

  /// Return to the freshly-constructed state: clears the filter and FIFO
  /// delay lines, the output rotator's phase, and the scrubbed-sample count.
  void reset();

 private:
  static AtPrecision<dsp::FirFilter> make_filter(const PipelineConfig& cfg);
  std::size_t delay_fifo_len() const;
  void record_construction_gauges();
  template <typename T>
  void run_filter(dsp::FirFilter<T>& filter, CSpan in, CMutSpan out);
  template <typename T>
  void report_workspace_growth(const char* grows_name, const char* bytes_name,
                               std::uint64_t& reported);

  PipelineConfig cfg_;
  AtPrecision<dsp::FirFilter> filter_;  // the composite taps c, at cfg_.precision
  channel::CfoRotator out_rotator_;     // e^{-jwn}; runs only without restore_cfo
  CVec delay_line_;      // bulk delay FIFO
  std::size_t delay_pos_ = 0;
  std::uint64_t scrubbed_ = 0;
  dsp::kernels::Workspace ws_;  // shared scratch for the block passes
  std::uint64_t ws_grows_reported_ = 0;  // ff.alloc.* telemetry watermarks
  std::uint64_t ws_f32_grows_reported_ = 0;
};

}  // namespace ff::relay
