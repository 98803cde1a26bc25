#include "stream/elements.hpp"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/seeding.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/resample.hpp"

namespace ff::stream {

namespace {

/// Split one `left:right` list entry at its first colon (path taps, client
/// registrations). FF_CHECKs the colon is present.
std::pair<std::string, std::string> split_pair(const std::string& context,
                                               const std::string& entry) {
  const auto colon = entry.find(':');
  FF_CHECK_MSG(colon != std::string::npos,
               context << ": expected 'a:b', got '" << entry << "'");
  return {entry.substr(0, colon), entry.substr(colon + 1)};
}

/// The `precision=` key shared by every element with a float32 fast path
/// (Pipeline, Channel, Canceller). Absent = f64; anything other than the
/// two canonical names is a configuration error naming the field.
Precision parse_precision(const Params& p) {
  const std::string v = p.get_string_or("precision", "f64");
  if (v == "f64") return Precision::kF64;
  if (v == "f32") return Precision::kF32;
  FF_CHECK_MSG(false, p.context() << ": precision: must be 'f64' or 'f32', got '"
                                  << v << "'");
  return Precision::kF64;  // unreachable
}

}  // namespace

// ---------------------------------------------------------------- sources

VectorSource::VectorSource(std::string name) : Source(std::move(name), kDefaultBlockSize) {}

VectorSource::VectorSource(std::string name, CVec data, std::size_t block_size)
    : Source(std::move(name), block_size), data_(std::move(data)) {
  FF_CHECK_MSG(!data_.empty(), "VectorSource needs a non-empty record");
}

void VectorSource::configure(const Params& p) {
  FF_CHECK_MSG(produced() == 0, name() << ": configure before streaming");
  data_ = p.get_cvec("data");
  FF_CHECK_MSG(!data_.empty(), p.context() << ": data: needs a non-empty record");
  set_block_size(p.get_size_or("block", block_size()));
}

CVec VectorSource::generate() {
  const std::size_t n = std::min(block_size(), data_.size() - offset_);
  CVec out(data_.begin() + static_cast<std::ptrdiff_t>(offset_),
           data_.begin() + static_cast<std::ptrdiff_t>(offset_ + n));
  offset_ += n;
  return out;
}

PacketSource::PacketSource(std::string name)
    : PacketSource(std::move(name), PacketSourceConfig{}, kDefaultBlockSize) {}

PacketSource::PacketSource(std::string name, PacketSourceConfig cfg, std::size_t block_size)
    : Source(std::move(name), block_size),
      cfg_(cfg),
      tx_(cfg.params),
      rng_(cfg.seed) {
  FF_CHECK_MSG(cfg_.n_packets > 0, "PacketSource needs at least one packet");
  FF_CHECK_MSG(cfg_.payload_bits > 0, "PacketSource needs a non-empty payload");
  FF_CHECK_MSG(cfg_.oversample >= 1, "PacketSource oversample must be >= 1");
}

void PacketSource::configure(const Params& p) {
  FF_CHECK_MSG(produced() == 0 && packets_done_ == 0,
               name() << ": configure before streaming");
  PacketSourceConfig cfg;
  cfg.params.fft_size = p.get_size_or("fft_size", cfg.params.fft_size);
  cfg.params.cp_len = p.get_size_or("cp_len", cfg.params.cp_len);
  cfg.params.sample_rate_hz = p.get_double_or("rate", cfg.params.sample_rate_hz);
  cfg.params.carrier_hz = p.get_double_or("carrier", cfg.params.carrier_hz);
  cfg.params.used_half = p.get_size_or("used_half", cfg.params.used_half);
  cfg.mcs_index = p.get_int_or("mcs", cfg.mcs_index);
  cfg.payload_bits = p.get_size_or("payload_bits", cfg.payload_bits);
  cfg.n_packets = p.get_size_or("packets", cfg.n_packets);
  cfg.gap_samples = p.get_size_or("gap", cfg.gap_samples);
  cfg.signature_client =
      static_cast<std::uint32_t>(p.get_u64_or("signature_client", cfg.signature_client));
  cfg.oversample = p.get_size_or("oversample", cfg.oversample);
  cfg.seed = p.get_u64_or("seed", cfg.seed);
  FF_CHECK_MSG(cfg.n_packets > 0, p.context() << ": packets: must be >= 1");
  FF_CHECK_MSG(cfg.payload_bits > 0, p.context() << ": payload_bits: must be >= 1");
  FF_CHECK_MSG(cfg.oversample >= 1, p.context() << ": oversample: must be >= 1");
  cfg_ = cfg;
  tx_ = phy::Transmitter(cfg_.params);
  rng_ = Rng(cfg_.seed);
  set_block_size(p.get_size_or("block", block_size()));
}

void PacketSource::add_handlers(HandlerRegistry& h) {
  Source::add_handlers(h);
  h.add_read("packets_done", [this] { return std::to_string(packets_done_); });
}

void PacketSource::stage_next_packet() {
  phy::TxOptions txo;
  txo.mcs_index = cfg_.mcs_index;
  txo.signature_client = cfg_.signature_client;
  std::vector<std::uint8_t> payload(cfg_.payload_bits);
  for (auto& b : payload) b = rng_.bernoulli(0.5) ? 1 : 0;
  staging_ = tx_.modulate(payload, txo);
  if (cfg_.oversample > 1) staging_ = dsp::upsample(staging_, cfg_.oversample);
  staging_.resize(staging_.size() + cfg_.gap_samples, Complex{});
  offset_ = 0;
  ++packets_done_;
}

CVec PacketSource::generate() {
  if (offset_ >= staging_.size()) stage_next_packet();
  const std::size_t n = std::min(block_size(), staging_.size() - offset_);
  CVec out(staging_.begin() + static_cast<std::ptrdiff_t>(offset_),
           staging_.begin() + static_cast<std::ptrdiff_t>(offset_ + n));
  offset_ += n;
  return out;
}

// -------------------------------------------------------------- transforms

FirElement::FirElement(std::string name)
    : FirElement(std::move(name), CVec{Complex{1.0, 0.0}}) {}

FirElement::FirElement(std::string name, CVec taps)
    : Transform(std::move(name)), fir_(std::move(taps)) {}

void FirElement::configure(const Params& p) {
  CVec taps = p.get_cvec("taps");
  FF_CHECK_MSG(!taps.empty(), p.context() << ": taps: needs at least one tap");
  // set_taps over the all-zero initial delay line is state-identical to
  // constructing FirFilter(taps) directly — the text path stays bit-exact.
  fir_.set_taps(std::move(taps));
}

void FirElement::add_handlers(HandlerRegistry& h) {
  Transform::add_handlers(h);
  h.add_read("taps", [this] { return format_cvec(fir_.taps()); });
  h.add_write("set_taps", [this](const std::string& v) {
    CVec taps = parse_cvec_value(name() + ".set_taps", v);
    FF_CHECK_MSG(!taps.empty(), name() << ".set_taps: needs at least one tap");
    fir_.set_taps(std::move(taps));
  });
}

void FirElement::process(Block& block) {
  fir_.process_into(block.samples, block.samples);
}

CfoElement::CfoElement(std::string name) : CfoElement(std::move(name), 0.0, 20e6) {}

CfoElement::CfoElement(std::string name, double cfo_hz, double sample_rate_hz,
                       Precision precision)
    : Transform(std::move(name)), rot_(cfo_hz, sample_rate_hz),
      sample_rate_hz_(sample_rate_hz), precision_(precision) {}

void CfoElement::configure(const Params& p) {
  sample_rate_hz_ = p.get_double_or("rate", sample_rate_hz_);
  FF_CHECK_MSG(sample_rate_hz_ > 0.0, p.context() << ": rate: must be positive");
  // set_cfo at phase 0 is state-identical to constructing the rotator.
  rot_.set_cfo(p.get_double("hz"), sample_rate_hz_);
  precision_ = parse_precision(p);
}

void CfoElement::add_handlers(HandlerRegistry& h) {
  Transform::add_handlers(h);
  h.add_read("cfo_hz", [this] { return format_double(rot_.cfo_hz()); });
  h.add_read("phase", [this] { return format_double(rot_.phase()); });
  h.add_write("set_cfo", [this](const std::string& v) {
    rot_.set_cfo(parse_double_value(name() + ".set_cfo", v), sample_rate_hz_);
  });
}

void CfoElement::process(Block& block) {
  if (precision_ == Precision::kF32)
    process_as<float>(block.samples);
  else
    process_as<double>(block.samples);
}

// Rotate at precision T (for float: convert once at the edges; slot 0 is
// the rotator's phasor table, f32 slot 1 the sample buffer).
template <typename T>
void CfoElement::process_as(CMutSpan samples) {
  const std::span<std::complex<T>> buf = dsp::kernels::block_at<T>(samples, ws_, 1);
  rot_.process_into(buf, buf, ws_);
  dsp::kernels::store_block<T>(buf, samples);
}

PipelineElement::PipelineElement(std::string name)
    : PipelineElement(std::move(name), relay::PipelineConfig{}) {}

PipelineElement::PipelineElement(std::string name, relay::PipelineConfig cfg)
    : Transform(std::move(name)), pipeline_(std::move(cfg)) {}

void PipelineElement::configure(const Params& p) {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = p.get_double_or("rate", cfg.sample_rate_hz);
  cfg.adc_dac_delay_samples = p.get_size_or("adc_dac_delay", cfg.adc_dac_delay_samples);
  cfg.extra_buffer_samples = p.get_size_or("extra_buffer", cfg.extra_buffer_samples);
  cfg.cfo_hz = p.get_double_or("cfo_hz", cfg.cfo_hz);
  cfg.restore_cfo = p.get_bool_or("restore_cfo", cfg.restore_cfo);
  cfg.prefilter = p.get_cvec_or("prefilter", cfg.prefilter);
  FF_CHECK_MSG(!cfg.prefilter.empty(), p.context() << ": prefilter: needs >= 1 tap");
  cfg.analog_rotation = p.get_complex_or("analog_rotation", cfg.analog_rotation);
  cfg.gain_db = p.get_double_or("gain_db", cfg.gain_db);
  cfg.tx_filter = p.get_cvec_or("tx_filter", cfg.tx_filter);
  cfg.scrub_nonfinite = p.get_bool_or("scrub_nonfinite", cfg.scrub_nonfinite);
  cfg.precision = parse_precision(p);
  pipeline_ = relay::ForwardPipeline(std::move(cfg));
}

void PipelineElement::add_handlers(HandlerRegistry& h) {
  Transform::add_handlers(h);
  h.add_read("scrubbed",
             [this] { return std::to_string(pipeline_.scrubbed_samples()); });
  h.add_read("max_delay_s", [this] { return format_double(pipeline_.max_delay_s()); });
}

void PipelineElement::on_metrics(MetricsRegistry* metrics) {
  pipeline_.set_metrics(metrics);
}

void PipelineElement::process(Block& block) {
  pipeline_.process_into(block.samples, block.samples);
}

ChannelElement::ChannelElement(std::string name)
    : ChannelElement(std::move(name), ChannelElementConfig{}) {}

void ChannelElement::configure(const Params& p) {
  FF_CHECK_MSG(pos_ == 0, name() << ": configure before streaming");
  ChannelElementConfig cfg;
  std::vector<channel::PathTap> taps;
  if (p.has("paths")) {
    const std::string ctx = p.context() + ": paths";
    for (const std::string& entry : split_list_value(ctx, p.get_string("paths"))) {
      const auto [delay, amp] = split_pair(ctx, entry);
      taps.push_back(channel::PathTap{parse_double_value(ctx, delay),
                                      parse_complex_value(ctx, amp)});
    }
  }
  const double fc = p.get_double_or("fc", 2.45e9);
  cfg.channel = channel::MultipathChannel(std::move(taps), fc);
  cfg.sample_rate_hz = p.get_double_or("rate", cfg.sample_rate_hz);
  cfg.delay_ref_s = p.get_double_or("delay_ref", cfg.delay_ref_s);
  cfg.sinc_half_width = p.get_size_or("sinc_half_width", cfg.sinc_half_width);
  cfg.noise_power = p.get_double_or("noise", cfg.noise_power);
  cfg.coherence_time_s = p.get_double_or("coherence", cfg.coherence_time_s);
  cfg.retune_interval_samples = p.get_size_or("retune_interval", cfg.retune_interval_samples);
  cfg.seed = p.get_u64_or("seed", cfg.seed);
  cfg.precision = parse_precision(p);
  FF_CHECK_MSG(cfg.sample_rate_hz > 0.0, p.context() << ": rate: must be positive");
  FF_CHECK_MSG(cfg.noise_power >= 0.0, p.context() << ": noise: must be >= 0");
  FF_CHECK_MSG(cfg.coherence_time_s >= 0.0, p.context() << ": coherence: must be >= 0");
  cfg_ = std::move(cfg);
  drift_ = net::DriftingChannel(cfg_.channel,
                                cfg_.coherence_time_s > 0.0 ? cfg_.coherence_time_s : 1.0);
  fir_ = make_fir();
  noise_rng_ = seeding::named_stream(cfg_.seed, "noise");
  drift_rng_ = seeding::named_stream(cfg_.seed, "drift");
  retunes_ = 0;
}

void ChannelElement::add_handlers(HandlerRegistry& h) {
  Transform::add_handlers(h);
  h.add_read("retunes", [this] { return std::to_string(retunes_); });
  // Manual retune: advance the drift process by dt seconds and
  // re-discretize (history-preserving). The scheduled retune_interval
  // machinery is unaffected; this is the hook for externally-driven
  // channel swaps while the stream runs.
  h.add_write("retune", [this](const std::string& v) {
    const double dt = parse_double_value(name() + ".retune", v);
    FF_CHECK_MSG(dt > 0.0, name() << ".retune: dt must be positive seconds");
    FF_CHECK_MSG(cfg_.coherence_time_s > 0.0,
                 name() << ".retune: needs a drifting channel (coherence > 0)");
    std::visit([&](auto& fir) { retune(fir, dt); }, fir_);
  });
}

AtPrecision<dsp::FirFilter> ChannelElement::make_fir() const {
  CVec taps = cfg_.channel.empty()
                  ? CVec{Complex{}}
                  : cfg_.channel.to_fir(cfg_.sample_rate_hz, cfg_.delay_ref_s,
                                        cfg_.sinc_half_width);
  return at_precision<dsp::FirFilter>(cfg_.precision, [&]<typename T>(T) {
    return dsp::FirFilter<T>(dsp::kernels::to_precision<T>(std::move(taps)));
  });
}

template <typename T>
void ChannelElement::retune(dsp::FirFilter<T>& fir, double dt) {
  drift_.advance(dt, drift_rng_);
  // Drift moves amplitudes, not delays: the FIR length is unchanged and
  // set_taps keeps the delay-line history (no retune transient).
  fir.set_taps(dsp::kernels::to_precision<T>(
      drift_.now().to_fir(cfg_.sample_rate_hz, cfg_.delay_ref_s, cfg_.sinc_half_width)));
  ++retunes_;
}

ChannelElement::ChannelElement(std::string name, ChannelElementConfig cfg)
    : Transform(std::move(name)),
      cfg_(std::move(cfg)),
      drift_(cfg_.channel, cfg_.coherence_time_s > 0.0 ? cfg_.coherence_time_s : 1.0),
      fir_(make_fir()),
      noise_rng_(seeding::named_stream(cfg_.seed, "noise")),
      drift_rng_(seeding::named_stream(cfg_.seed, "drift")) {
  FF_CHECK_MSG(cfg_.sample_rate_hz > 0.0, "ChannelElement needs a positive sample rate");
  FF_CHECK_MSG(cfg_.noise_power >= 0.0, "ChannelElement noise_power must be >= 0");
  FF_CHECK_MSG(cfg_.coherence_time_s >= 0.0,
               "ChannelElement coherence_time_s must be >= 0");
}

void ChannelElement::process(Block& block) {
  std::visit([&](auto& fir) { process_as(fir, block.samples); }, fir_);
}

template <typename T>
void ChannelElement::process_as(dsp::FirFilter<T>& fir, CMutSpan samples) {
  // Segment-wise between retune boundaries: retunes still land at exact
  // stream positions (multiples of the interval) and the noise/drift RNG
  // draws are still consumed in sample order — the FIR consumes no
  // randomness, so filtering a whole segment before drawing its noise uses
  // every draw for the same sample as the per-sample loop did. Within a
  // segment the taps are fixed, so the block FIR path applies (bit-identical
  // to push() at any block size).
  const std::size_t interval = cfg_.retune_interval_samples;
  std::size_t done = 0;
  while (done < samples.size()) {
    if (drifting() && pos_ > 0 && pos_ % interval == 0)
      retune(fir, static_cast<double>(interval) / cfg_.sample_rate_hz);
    std::size_t chunk = samples.size() - done;
    if (drifting())
      chunk = std::min<std::size_t>(
          chunk, static_cast<std::size_t>(interval - pos_ % interval));
    // At float: narrow once, stay f32 through the FIR and the noise add
    // (f32 slot 0 is FIR scratch), widen once.
    const CMutSpan seg = samples.subspan(done, chunk);
    const std::span<std::complex<T>> buf = dsp::kernels::block_at<T>(seg, ws_, 1);
    fir.process_into(buf, buf, ws_);
    if (cfg_.noise_power > 0.0) {
      if constexpr (std::is_same_v<T, double>) {
        for (auto& s : buf) s += noise_rng_.cgaussian(cfg_.noise_power);
      } else {
        // Rng::cgaussian32 is the float32 family's own draw sequence (same
        // named engine stream, float polar method, several times cheaper
        // than the double draws): a float32 channel pays float32 prices for
        // its noise, and the f32 checksum family pins the result. Draws are
        // still consumed per-sample in stream order, so the f32 stream is
        // invariant to blocking for the same reason kF64 is.
        const float np = static_cast<float>(cfg_.noise_power);
        for (auto& s : buf) s += noise_rng_.cgaussian32(np);
      }
    }
    dsp::kernels::store_block<T>(buf, seg);
    pos_ += chunk;
    done += chunk;
  }
}

FaultElement::FaultElement(std::string name)
    : FaultElement(std::move(name), eval::FaultConfig{}) {}

FaultElement::FaultElement(std::string name, eval::FaultConfig cfg)
    : Transform(std::move(name)), injector_(cfg) {}

void FaultElement::configure(const Params& p) {
  FF_CHECK_MSG(injector_.samples_seen() == 0, name() << ": configure before streaming");
  eval::FaultConfig cfg;
  cfg.sample_drop_rate = p.get_double_or("drop", cfg.sample_drop_rate);
  cfg.sample_corrupt_rate = p.get_double_or("corrupt", cfg.sample_corrupt_rate);
  cfg.sample_nan_rate = p.get_double_or("nan", cfg.sample_nan_rate);
  cfg.corrupt_amplitude = p.get_double_or("corrupt_amplitude", cfg.corrupt_amplitude);
  cfg.estimate_sigma = p.get_double_or("estimate_sigma", cfg.estimate_sigma);
  cfg.sounding_failure_rate = p.get_double_or("sounding_failure", cfg.sounding_failure_rate);
  cfg.seed = p.get_u64_or("seed", cfg.seed);
  // FaultInjector's constructor validates every rate/amplitude, so a bad
  // value fails here with the field named by the Params context.
  injector_ = eval::FaultInjector(cfg);
}

void FaultElement::add_handlers(HandlerRegistry& h) {
  Transform::add_handlers(h);
  h.add_read("samples_seen", [this] { return std::to_string(injector_.samples_seen()); });
  h.add_read("dropped", [this] { return std::to_string(injector_.samples_dropped()); });
  h.add_read("corrupted", [this] { return std::to_string(injector_.samples_corrupted()); });
  h.add_read("poisoned", [this] { return std::to_string(injector_.samples_poisoned()); });
}

void FaultElement::process(Block& block) { injector_.apply(block.samples); }

GateElement::GateElement(std::string name)
    : Transform(std::move(name)), detector_(), window_(1) {}

GateElement::GateElement(std::string name, ident::PnSignatureDetector detector,
                         std::size_t window)
    : Transform(std::move(name)), detector_(std::move(detector)), window_(window) {
  FF_CHECK_MSG(window_ > 0, "GateElement needs a positive decision window");
  buffer_.reserve(window_);
}

void GateElement::configure(const Params& p) {
  FF_CHECK_MSG(!decided_ && buffer_.empty(), name() << ": configure before streaming");
  window_ = p.get_size("window");
  FF_CHECK_MSG(window_ > 0, p.context() << ": window: must be >= 1");
  const double threshold = p.get_double_or("threshold", 0.6);
  FF_CHECK_MSG(threshold > 0.0 && threshold <= 1.0,
               p.context() << ": threshold: must be in (0, 1], got " << threshold);
  detector_ = ident::PnSignatureDetector(threshold);
  const std::string ctx = p.context() + ": clients";
  const auto entries = split_list_value(ctx, p.get_string("clients"));
  FF_CHECK_MSG(!entries.empty(), ctx << ": needs at least one id:len registration");
  for (const std::string& entry : entries) {
    const auto [id, len] = split_pair(ctx, entry);
    const std::uint64_t client = parse_u64_value(ctx, id);
    const std::uint64_t sig_len = parse_u64_value(ctx, len);
    FF_CHECK_MSG(sig_len >= 1, ctx << ": signature length must be >= 1");
    detector_.register_client(static_cast<std::uint32_t>(client),
                              static_cast<std::size_t>(sig_len));
  }
  buffer_.reserve(window_);
}

void GateElement::add_handlers(HandlerRegistry& h) {
  Transform::add_handlers(h);
  h.add_read("decided", [this] { return decided_ ? std::string("true") : std::string("false"); });
  h.add_read("client", [this] {
    return decision_ ? std::to_string(decision_->client) : std::string("none");
  });
  // Force the gate decision (true = pass, false = mute), overriding
  // detection — the operator's override for a stuck or misdetected gate.
  h.add_write("set_open", [this](const std::string& v) {
    pass_ = parse_bool_value(name() + ".set_open", v);
    decided_ = true;
    buffer_.clear();
    buffer_.shrink_to_fit();
  });
}

void GateElement::process(Block& block) {
  for (auto& s : block.samples) {
    if (!decided_) {
      buffer_.push_back(s);
      if (buffer_.size() == window_) {
        decision_ = detector_.detect(buffer_);
        pass_ = decision_.has_value();
        decided_ = true;
        buffer_.clear();
        buffer_.shrink_to_fit();
      }
      // Window samples are always forwarded muted — the decision they feed
      // only affects samples after the window.
      s = Complex{};
      continue;
    }
    if (!pass_) s = Complex{};
  }
}

// --------------------------------------------------------------- plumbing

Tee::Tee(std::string name) : Tee(std::move(name), 2) {}

Tee::Tee(std::string name, std::size_t n_outputs) : Element(std::move(name), 1, n_outputs) {
  FF_CHECK_MSG(n_outputs >= 2, "Tee needs at least two outputs (use a wire otherwise)");
}

void Tee::configure(const Params& p) {
  const std::size_t outputs = p.get_size_or("outputs", n_outputs());
  FF_CHECK_MSG(outputs >= 2, p.context() << ": outputs: must be >= 2");
  set_port_counts(1, outputs);
}

bool Tee::work() {
  const std::size_t n = n_outputs();
  bool moved = false;
  for (;;) {
    if (!in_available(0)) break;
    bool all_ready = true;
    for (std::size_t p = 0; p < n; ++p) all_ready &= out_ready(p);
    if (!all_ready) {
      note_stall();
      break;
    }
    Block b = pop(0);
    for (std::size_t p = 0; p + 1 < n; ++p) {
      Block copy;
      copy.samples = b.samples;
      copy.start = b.start;
      copy.flags = b.flags;
      emit(p, std::move(copy));
    }
    emit(n - 1, std::move(b));
    moved = true;
  }
  if (in_drained(0)) close_outputs();
  return moved;
}

void Add2::process(Block& a, const Block& b) {
  for (std::size_t i = 0; i < a.samples.size(); ++i) a.samples[i] += b.samples[i];
}

CVec CancellerElement::or_zero_tap(CVec taps) {
  if (taps.empty()) taps.push_back(Complex{});
  return taps;
}

CancellerElement::CancellerElement(std::string name)
    : CancellerElement(std::move(name), CVec{}, CVec{}) {}

CancellerElement::CancellerElement(std::string name, CVec analog_fir, CVec digital_taps)
    : Combine2(std::move(name)),
      analog_taps_(or_zero_tap(std::move(analog_fir))),
      digital_taps_(or_zero_tap(std::move(digital_taps))),
      stages_(make_stages()) {}

AtPrecision<CancellerElement::Stages> CancellerElement::make_stages() const {
  return at_precision<Stages>(precision_, [this]<typename T>(T) {
    using dsp::kernels::to_precision;
    return Stages<T>{dsp::FirFilter<T>(to_precision<T>(analog_taps_)),
                     dsp::FirFilter<T>(to_precision<T>(digital_taps_))};
  });
}

void CancellerElement::retune() {
  std::visit(
      [this]<typename T>(Stages<T>& st) {
        using dsp::kernels::to_precision;
        st.analog.set_taps(to_precision<T>(analog_taps_));
        st.digital.set_taps(to_precision<T>(digital_taps_));
      },
      stages_);
}

void CancellerElement::configure(const Params& p) {
  analog_taps_ = or_zero_tap(p.get_cvec_or("analog", CVec{}));
  digital_taps_ = or_zero_tap(p.get_cvec_or("digital", CVec{}));
  const Precision precision = parse_precision(p);
  if (precision == precision_) {
    retune();
  } else {
    precision_ = precision;
    stages_ = make_stages();
  }
}

void CancellerElement::add_handlers(HandlerRegistry& h) {
  Combine2::add_handlers(h);
  h.add_read("analog_taps", [this] { return format_cvec(analog_taps_); });
  h.add_read("digital_taps", [this] { return format_cvec(digital_taps_); });
  h.add_write("set_analog_taps", [this](const std::string& v) {
    analog_taps_ = or_zero_tap(parse_cvec_value(name() + ".set_analog_taps", v));
    retune();
  });
  h.add_write("set_digital_taps", [this](const std::string& v) {
    digital_taps_ = or_zero_tap(parse_cvec_value(name() + ".set_digital_taps", v));
    retune();
  });
}

CancellerElement::CancellerElement(std::string name, const fd::CancellationStack& stack)
    : CancellerElement(std::move(name), stack.analog_fir(), stack.digital().taps()) {
  FF_CHECK_MSG(stack.tuned(), "CancellerElement needs a tuned CancellationStack");
  FF_CHECK_MSG(stack.digital().added_delay_samples() == 0,
               "CancellerElement needs a causal digital stage (lookahead 0); "
               "a non-causal canceller buffers future tx and cannot stream");
}

void CancellerElement::cancel_into(CMutSpan rx, CSpan tx) {
  FF_CHECK_MSG(tx.size() == rx.size(),
               "CancellerElement::cancel_into needs tx.size() == rx.size(), got "
                   << tx.size() << " vs " << rx.size());
  if (rx.empty()) return;
  std::visit([&](auto& stages) { cancel_as(stages, rx, tx); }, stages_);
}

template <typename T>
void CancellerElement::cancel_as(Stages<T>& st, CMutSpan rx, CSpan tx) {
  // Two explicit subtractions, analog first: the batch reference
  // (stack.apply_into) computes (rx - analog) - digital, and matching that
  // association is what makes streaming == batch BIT-identical, not merely
  // close — floating-point subtraction does not re-associate. Both stages
  // run the same dsp::fir_core accumulation order as the batch path; the
  // stateful delay lines make the equivalence hold across block boundaries.
  // At float both streams are narrowed once and the residual widened once.
  // Slot 0 is FIR scratch; 1/2 hold the stage outputs, f32 3/4 the streams.
  const std::size_t n = rx.size();
  const std::span<std::complex<T>> analog = ws_.get<T>(1, n);
  const std::span<std::complex<T>> digital = ws_.get<T>(2, n);
  const std::span<std::complex<T>> r = dsp::kernels::block_at<T>(rx, ws_, 3);
  const std::span<const std::complex<T>> t = dsp::kernels::block_at<T>(tx, ws_, 4);
  st.analog.process_into(t, analog, ws_);
  st.digital.process_into(t, digital, ws_);
  for (std::size_t i = 0; i < n; ++i) r[i] = (r[i] - analog[i]) - digital[i];
  dsp::kernels::store_block<T>(r, rx);
}

void CancellerElement::process(Block& rx, const Block& tx) {
  cancel_into(CMutSpan{rx.samples.data(), rx.samples.size()},
              CSpan{tx.samples.data(), tx.samples.size()});
}

// ------------------------------------------------------------------ sinks

AccumulatorSink::AccumulatorSink(std::string name, std::size_t max_blocks_per_work)
    : SinkBase(std::move(name), max_blocks_per_work) {}

void AccumulatorSink::configure(const Params& p) {
  set_max_blocks_per_work(p.get_size_or("max_blocks_per_work", 0));
}

void AccumulatorSink::add_handlers(HandlerRegistry& h) {
  SinkBase::add_handlers(h);
  h.add_read("samples", [this] { return std::to_string(samples_.size()); });
  h.add_read("blocks", [this] { return std::to_string(blocks_seen_); });
}

void AccumulatorSink::consume(const Block& block) {
  FF_CHECK_MSG(block.start == samples_.size(),
               name() << " received out-of-order block: starts at " << block.start
                      << ", expected " << samples_.size());
  samples_.insert(samples_.end(), block.samples.begin(), block.samples.end());
  ++blocks_seen_;
}

NullSink::NullSink(std::string name, std::size_t max_blocks_per_work)
    : SinkBase(std::move(name), max_blocks_per_work) {}

void NullSink::configure(const Params& p) {
  set_max_blocks_per_work(p.get_size_or("max_blocks_per_work", 0));
}

void NullSink::add_handlers(HandlerRegistry& h) {
  SinkBase::add_handlers(h);
  h.add_read("samples_seen", [this] { return std::to_string(samples_seen_); });
  h.add_read("mean_power", [this] { return format_double(mean_power()); });
}

void NullSink::consume(const Block& block) {
  for (const Complex s : block.samples) power_acc_ += std::norm(s);
  samples_seen_ += block.samples.size();
}

double NullSink::mean_power() const {
  return samples_seen_ == 0 ? 0.0 : power_acc_ / static_cast<double>(samples_seen_);
}

}  // namespace ff::stream
