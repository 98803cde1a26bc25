// The element library: concrete sources, transforms, combiners and sinks
// that wrap the simulator's stateful components for the streaming runtime.
//
// Every element here keeps the block-size invariance contract (block.hpp):
// the wrapped kernels are push()-style with internal delay lines, and any
// position-dependent behaviour (channel retunes, fault schedules, gate
// decisions) happens at exact sample indices — never "once per block". A
// stream cut into blocks of 1 and of 4096 therefore produces bit-identical
// samples, which tests/stream_test.cpp asserts against the batch path.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "channel/cfo.hpp"
#include "channel/multipath.hpp"
#include "common/noise.hpp"
#include "common/rng.hpp"
#include "dsp/fir.hpp"
#include "eval/faults.hpp"
#include "fullduplex/stack.hpp"
#include "ident/pn_detector.hpp"
#include "net/drift.hpp"
#include "phy/frame.hpp"
#include "relay/pipeline.hpp"
#include "stream/element.hpp"

namespace ff::stream {

// ---------------------------------------------------------------- sources

/// Default block size for declaratively-constructed sources that don't
/// specify `block=`.
inline constexpr std::size_t kDefaultBlockSize = 256;

/// Replays a fixed sample record (a captured trace, a precomputed packet)
/// as a stream of `block_size` blocks.
///
/// Params: data (complex list, required), block (default 256).
class VectorSource : public Source {
 public:
  explicit VectorSource(std::string name);
  VectorSource(std::string name, CVec data, std::size_t block_size);

  const char* class_name() const override { return "VectorSource"; }
  void configure(const Params& params) override;

 protected:
  bool exhausted() const override { return offset_ >= data_.size(); }
  CVec generate() override;

 private:
  CVec data_;
  std::size_t offset_ = 0;
};

struct PacketSourceConfig {
  phy::OfdmParams params{};
  int mcs_index = 0;
  std::size_t payload_bits = 256;
  std::size_t n_packets = 1;
  /// Idle (zero) samples appended after every packet, the last included —
  /// the inter-frame gap, and room for downstream filter tails.
  std::size_t gap_samples = 160;
  /// Non-zero = prepend this client's PN signature (Sec. 6 downlink form).
  std::uint32_t signature_client = 0;
  /// Upsampling factor applied per packet (the time-domain evaluator's
  /// converter oversampling; 4 = 80 Msps for the 20 MHz PHY). gap_samples
  /// count at the upsampled rate. Per-packet upsampling keeps generation —
  /// and therefore the stream — independent of the block size.
  std::size_t oversample = 1;
  std::uint64_t seed = 1;
};

/// Generates a deterministic sequence of modulated packets with random
/// payloads, lazily one packet at a time (a session of N packets never
/// holds more than one packet of staging memory).
///
/// Params: packets, payload_bits, gap, signature_client, oversample, seed,
/// mcs, block, plus OFDM numerology overrides fft_size, cp_len, rate,
/// carrier, used_half (defaults = the WiFi-20 prototype PHY).
class PacketSource : public Source {
 public:
  explicit PacketSource(std::string name);
  PacketSource(std::string name, PacketSourceConfig cfg, std::size_t block_size);

  const char* class_name() const override { return "PacketSource"; }
  void configure(const Params& params) override;

  const PacketSourceConfig& config() const { return cfg_; }
  std::size_t packets_done() const { return packets_done_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;

  bool exhausted() const override {
    return packets_done_ == cfg_.n_packets && offset_ >= staging_.size();
  }
  CVec generate() override;

 private:
  void stage_next_packet();

  PacketSourceConfig cfg_;
  phy::Transmitter tx_;
  Rng rng_;
  CVec staging_;
  std::size_t offset_ = 0;
  std::size_t packets_done_ = 0;
};

// -------------------------------------------------------------- transforms

/// Stateful FIR filtering (dsp::FirFilter): the delay line spans block
/// boundaries, so streaming equals one batch dsp::filter() call bit-for-bit.
///
/// Params: taps (complex list, required).
/// Handlers: taps (read), set_taps (write, history-preserving live retune).
class FirElement : public Transform {
 public:
  explicit FirElement(std::string name);
  FirElement(std::string name, CVec taps);

  const char* class_name() const override { return "Fir"; }
  void configure(const Params& params) override;

  const dsp::FirFilter<>& filter() const { return fir_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void process(Block& block) override;

 private:
  dsp::FirFilter<> fir_;
};

/// Phase-continuous CFO rotation (channel::CfoRotator).
///
/// Params: hz (required, |hz| < rate/2), rate (default 20e6), precision
/// (f64 | f32 — the float32 fast path: narrow once, rotate in f32, widen
/// once).
/// Handlers: cfo_hz, phase (read), set_cfo (write, phase-continuous retune;
/// a value at or beyond rate/2 is refused and the old CFO kept).
class CfoElement : public Transform {
 public:
  explicit CfoElement(std::string name);
  CfoElement(std::string name, double cfo_hz, double sample_rate_hz,
             Precision precision = Precision::kF64);

  const char* class_name() const override { return "Cfo"; }
  void configure(const Params& params) override;

  const channel::CfoRotator& rotator() const { return rot_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void process(Block& block) override;

 private:
  template <typename T>
  void process_as(CMutSpan samples);

  channel::CfoRotator rot_;
  double sample_rate_hz_;
  Precision precision_ = Precision::kF64;
  dsp::kernels::Workspace ws_;  // phasor table + the f32 sample buffer
};

/// The relay's forward path (relay::ForwardPipeline) as a stream stage:
/// one composite FIR — CFO remove, digital CNF, CFO restore, gain, analog
/// CNF rotation and TX filter folded into one set of taps (relay/pipeline.hpp
/// derives it) — then the ADC/DAC + buffering delay FIFO; with
/// restore_cfo=false one output rotator follows the FIR. Stateful across
/// blocks.
/// Params: rate, adc_dac_delay, extra_buffer, cfo_hz (|cfo_hz| < rate/2),
/// restore_cfo, prefilter (complex list), analog_rotation, gain_db,
/// tx_filter (complex list), scrub_nonfinite, precision (f64 | f32 — the
/// mixed-precision forward fast path, relay::PipelineConfig::precision).
/// Handlers: scrubbed, max_delay_s (read).
class PipelineElement : public Transform {
 public:
  explicit PipelineElement(std::string name);
  PipelineElement(std::string name, relay::PipelineConfig cfg);

  const char* class_name() const override { return "Pipeline"; }
  void configure(const Params& params) override;

  const relay::ForwardPipeline& pipeline() const { return pipeline_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void on_metrics(MetricsRegistry* metrics) override;
  void process(Block& block) override;

 private:
  relay::ForwardPipeline pipeline_;
};

struct ChannelElementConfig {
  channel::MultipathChannel channel;
  double sample_rate_hz = 20e6;
  /// Timeline origin subtracted from path delays before discretization
  /// (must be <= the channel's min delay; see MultipathChannel::to_fir).
  double delay_ref_s = 0.0;
  std::size_t sinc_half_width = 16;
  /// Per-sample complex noise power E[|n|^2] added after the channel
  /// (thermal floor at the receiver). 0 = noiseless.
  double noise_power = 0.0;
  /// Channel coherence time for AR(1) drift (net::DriftingChannel).
  /// 0 = static channel, no drift.
  double coherence_time_s = 0.0;
  /// Re-discretize the drifting channel every this many samples. The
  /// retune happens at exact stream positions (multiples of the interval),
  /// so drift is block-size invariant. 0 = never retune (static FIR).
  std::size_t retune_interval_samples = 0;
  std::uint64_t seed = 0x5EED;
  /// kF32 runs the channel FIR on the float32 kernel family and adds the
  /// noise in float (narrow on segment entry, widen on exit).
  /// Discretization, drift and the noise draws stay double — the same draws
  /// in the same order as kF64, rounded once to float — so the f32 stream
  /// keeps its own block-size/thread-invariant checksum.
  Precision precision = Precision::kF64;
};

/// Multipath propagation as a stream stage: the channel discretized to a
/// stateful FIR, optional AWGN, and optional AR(1) tap drift with retunes
/// at exact sample positions. Drift changes amplitudes, never delays, so
/// the FIR length is constant and set_taps() keeps the delay-line history
/// across retunes (no re-discretization transient).
/// Params: paths (list of `delay:amp` entries, amp complex), fc (carrier,
/// default 2.45e9), rate, delay_ref, sinc_half_width, noise, coherence,
/// retune_interval, seed, precision (f64 | f32).
/// Handlers: retunes (read), retune (write: advance drift by the given dt
/// seconds and re-discretize — a manual retune step).
class ChannelElement : public Transform {
 public:
  explicit ChannelElement(std::string name);
  ChannelElement(std::string name, ChannelElementConfig cfg);

  const char* class_name() const override { return "Channel"; }
  void configure(const Params& params) override;

  const ChannelElementConfig& config() const { return cfg_; }
  /// Retunes performed so far (drift steps applied to the FIR).
  std::uint64_t retunes() const { return retunes_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void process(Block& block) override;

 private:
  bool drifting() const {
    return cfg_.coherence_time_s > 0.0 && cfg_.retune_interval_samples > 0;
  }

  AtPrecision<dsp::FirFilter> make_fir() const;
  template <typename T>
  void process_as(dsp::FirFilter<T>& fir, CMutSpan samples);
  /// Advance the drift process by dt seconds and re-discretize into `fir`.
  template <typename T>
  void retune(dsp::FirFilter<T>& fir, double dt);

  ChannelElementConfig cfg_;
  net::DriftingChannel drift_;
  AtPrecision<dsp::FirFilter> fir_;  // at cfg_.precision
  NoiseSampler noise_;
  Rng drift_rng_;
  std::uint64_t pos_ = 0;
  std::uint64_t retunes_ = 0;
  dsp::kernels::Workspace ws_;  // FIR scratch for the segment-wise block path
};

/// Deterministic front-end faults (eval::FaultInjector) applied in stream
/// order; the injector's schedules are already batch-invariant by design.
/// Params: drop, corrupt, nan (rates in [0,1]), corrupt_amplitude,
/// estimate_sigma, sounding_failure, seed — all routed through
/// FaultInjector's own validation, so a bad rate names the field.
/// Handlers: samples_seen, dropped, corrupted, poisoned (read).
class FaultElement : public Transform {
 public:
  explicit FaultElement(std::string name);
  FaultElement(std::string name, eval::FaultConfig cfg);

  const char* class_name() const override { return "Fault"; }
  void configure(const Params& params) override;

  const eval::FaultInjector& injector() const { return injector_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void process(Block& block) override;

 private:
  eval::FaultInjector injector_;
};

/// PN-signature gating (Sec. 6): the relay mutes its forward path until it
/// recognizes a registered client's signature in the first `window` samples
/// of the stream. The detect decision is made exactly once, at sample index
/// `window` (or end-of-stream if shorter) — a sample-exact decision point,
/// so gating is block-size invariant. Before the decision the output is
/// muted (zeros); after it, samples pass iff a signature matched.
/// Params: window (required, >= 1), clients (required, list of `id:len`
/// signature registrations), threshold (default 0.6, in (0, 1]).
/// Handlers: decided, client (read), set_open (write: force the gate
/// decision — true opens, false mutes; overrides detection).
class GateElement : public Transform {
 public:
  explicit GateElement(std::string name);
  GateElement(std::string name, ident::PnSignatureDetector detector, std::size_t window);

  const char* class_name() const override { return "Gate"; }
  void configure(const Params& params) override;

  /// The decision, once made (empty optional before, and forever when no
  /// signature matched).
  const std::optional<ident::PnDetection>& decision() const { return decision_; }
  bool decided() const { return decided_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void process(Block& block) override;

 private:
  ident::PnSignatureDetector detector_;
  std::size_t window_;
  CVec buffer_;          // first `window` samples, for the one detect() call
  bool decided_ = false;
  bool pass_ = false;
  std::optional<ident::PnDetection> decision_;
};

// --------------------------------------------------------------- plumbing

/// Explicit buffering stage (Click's Queue): passes blocks through
/// untouched; its purpose is the bounded channels on either side. Wire it
/// with small capacities to study backpressure, large ones to decouple a
/// bursty producer from a slow consumer.
class Queue : public Transform {
 public:
  explicit Queue(std::string name) : Transform(std::move(name)) {}

  const char* class_name() const override { return "Queue"; }

 protected:
  void process(Block&) override {}
};

/// Copies each input block to every output (the stream equivalent of a
/// signal splitter — e.g. the over-the-air signal reaching both the direct
/// path and the relay). Pops only when every output can accept the copy,
/// so one slow branch backpressures the other.
///
/// Params: outputs (default 2, >= 2).
class Tee : public Element {
 public:
  explicit Tee(std::string name);
  Tee(std::string name, std::size_t n_outputs);

  const char* class_name() const override { return "Tee"; }
  void configure(const Params& params) override;

  bool work() override;
};

/// Aligned sample-wise sum of two streams (superposition at a receiver).
class Add2 : public Combine2 {
 public:
  explicit Add2(std::string name) : Combine2(std::move(name)) {}

  const char* class_name() const override { return "Add2"; }

 protected:
  void process(Block& a, const Block& b) override;
};

/// Streaming two-stage self-interference cancellation: input 0 is the
/// receive stream, input 1 the (known) transmit stream; the output is
///   rx[n] - (analog_fir * tx)[n] - (digital_taps * tx)[n],
/// i.e. fd::CancellationStack::apply() restated with stateful FIRs so it
/// runs online. Requires a causal digital stage (lookahead 0) — the paper's
/// whole point (Sec. 3.3) is that the causal canceller needs no future tx.
/// Params: analog, digital (complex lists, either may be omitted),
/// precision (f64 | f32: run both FIR stages and the subtractions on the
/// float32 kernel family, converting at the block edges).
/// Handlers: analog_taps, digital_taps (read), set_analog_taps,
/// set_digital_taps (write, history-preserving live retunes).
class CancellerElement : public Combine2 {
 public:
  explicit CancellerElement(std::string name);

  /// From raw tap sets (empty digital taps = analog stage only).
  CancellerElement(std::string name, CVec analog_fir, CVec digital_taps);

  /// From a tuned stack (FF_CHECKs tuned() and a causal digital stage).
  CancellerElement(std::string name, const fd::CancellationStack& stack);

  const char* class_name() const override { return "Canceller"; }
  void configure(const Params& params) override;

  /// The steady-state hot loop: cancel one aligned block in place
  /// (rx[i] = (rx[i] - analog[i]) - digital[i], both stages stateful).
  /// Both FIR stages run block-wise through the element-owned Workspace
  /// (slot 0: FIR extended buffers, slots 1/2: analog/digital stage
  /// outputs), so after warmup this performs zero heap allocations —
  /// tests/kernels_test.cpp asserts that with an operator-new hook.
  void cancel_into(CMutSpan rx, CSpan tx);

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void process(Block& rx, const Block& tx) override;

 private:
  // The two FIR stages at one sample precision T.
  template <typename T>
  struct Stages {
    dsp::FirFilter<T> analog;
    dsp::FirFilter<T> digital;
  };

  static CVec or_zero_tap(CVec taps);
  AtPrecision<Stages> make_stages() const;
  /// Push analog_taps_/digital_taps_ into the stages (history-preserving).
  void retune();
  template <typename T>
  void cancel_as(Stages<T>& stages, CMutSpan rx, CSpan tx);

  CVec analog_taps_;  // double masters; the stages run them at precision_
  CVec digital_taps_;
  Precision precision_ = Precision::kF64;
  AtPrecision<Stages> stages_;
  dsp::kernels::Workspace ws_;
};

// ------------------------------------------------------------------ sinks

/// Collects the stream back into one contiguous vector, asserting the
/// blocks arrive in order and gap-free. `max_blocks_per_work` (see
/// SinkBase) throttles consumption for backpressure tests.
class AccumulatorSink : public SinkBase {
 public:
  explicit AccumulatorSink(std::string name, std::size_t max_blocks_per_work = 0);

  const char* class_name() const override { return "AccumulatorSink"; }
  void configure(const Params& params) override;

  const CVec& samples() const { return samples_; }
  CVec take() { return std::move(samples_); }
  std::uint64_t blocks_seen() const { return blocks_seen_; }

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void consume(const Block& block) override;

 private:
  CVec samples_;
  std::uint64_t blocks_seen_ = 0;
};

/// Counts samples and accumulates mean power without storing the stream —
/// the bounded-memory sink for long sessions.
class NullSink : public SinkBase {
 public:
  explicit NullSink(std::string name, std::size_t max_blocks_per_work = 0);

  const char* class_name() const override { return "NullSink"; }
  void configure(const Params& params) override;

  std::uint64_t samples_seen() const { return samples_seen_; }
  /// Mean |x|^2 over everything consumed (0 before any sample).
  double mean_power() const;

 protected:
  void add_handlers(HandlerRegistry& handlers) override;
  void consume(const Block& block) override;

 private:
  std::uint64_t samples_seen_ = 0;
  double power_acc_ = 0.0;
};

}  // namespace ff::stream
