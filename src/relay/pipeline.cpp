#include "relay/pipeline.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::relay {

ForwardPipeline::ForwardPipeline(PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      filter_(make_filter(cfg_)),
      out_rotator_(-cfg_.cfo_hz, cfg_.sample_rate_hz),
      delay_line_(std::max<std::size_t>(delay_fifo_len(), 1), Complex{}) {
  FF_CHECK_MSG(std::isfinite(cfg_.cfo_hz), "PipelineConfig.cfo_hz must be finite");
  FF_CHECK_MSG(std::isfinite(cfg_.gain_db), "PipelineConfig.gain_db must be finite");
  FF_CHECK_MSG(std::isfinite(cfg_.analog_rotation.real()) &&
                   std::isfinite(cfg_.analog_rotation.imag()),
               "PipelineConfig.analog_rotation must be finite");
  record_construction_gauges();
}

// The composite taps of the header derivation, in double:
//   c = g r ((h . e^{jwk}) * t'),  t' = t (restore) or t . e^{jwm} (no restore)
// with an empty TX filter read as t = [1]. Narrowed to T once, here.
AtPrecision<dsp::FirFilter> ForwardPipeline::make_filter(const PipelineConfig& cfg) {
  // Checked before any tap is built: the sample rate divides the CFO step,
  // and an empty prefilter has no composite.
  FF_CHECK(!cfg.prefilter.empty());
  FF_CHECK_MSG(std::isfinite(cfg.sample_rate_hz) && cfg.sample_rate_hz > 0.0,
               "PipelineConfig.sample_rate_hz must be positive and finite, got "
                   << cfg.sample_rate_hz);
  const double w = kTwoPi * cfg.cfo_hz / cfg.sample_rate_hz;
  const auto modulate = [w](CVec taps) {
    for (std::size_t k = 0; k < taps.size(); ++k) {
      const double phase = w * static_cast<double>(k);
      taps[k] *= Complex{std::cos(phase), std::sin(phase)};
    }
    return taps;
  };
  CVec tx = cfg.tx_filter.empty() ? CVec{Complex{1.0, 0.0}} : cfg.tx_filter;
  if (!cfg.restore_cfo) tx = modulate(std::move(tx));
  CVec taps = dsp::convolve(modulate(cfg.prefilter), tx);
  const Complex gain_rotation = amplitude_from_db(cfg.gain_db) * cfg.analog_rotation;
  for (Complex& c : taps) c *= gain_rotation;
  return at_precision<dsp::FirFilter>(cfg.precision, [&taps]<typename T>(T) {
    return dsp::FirFilter<T>(dsp::kernels::to_precision<T>(std::move(taps)));
  });
}

void ForwardPipeline::record_construction_gauges() {
  if (!cfg_.metrics) return;
  metrics::add(cfg_.metrics, "relay.pipeline.instances");
  metrics::observe(cfg_.metrics, "relay.pipeline.max_delay_s", max_delay_s());
  metrics::set(cfg_.metrics, "relay.pipeline.prefilter_taps",
               static_cast<double>(cfg_.prefilter.size()));
  // Which arithmetic width the forward path runs at (64 or 32) — like
  // ff.kernels.isa, the tag that lets a snapshot explain a perf delta.
  metrics::set(cfg_.metrics, "ff.kernels.precision",
               cfg_.precision == Precision::kF32 ? 32.0 : 64.0);
}

void ForwardPipeline::set_metrics(MetricsRegistry* metrics) {
  if (metrics == cfg_.metrics) return;
  cfg_.metrics = metrics;
  record_construction_gauges();
}

std::size_t ForwardPipeline::delay_fifo_len() const {
  // With a TX filter, the converter latency lives in the filter's group
  // delay; only the artificial buffering remains a FIFO.
  if (!cfg_.tx_filter.empty()) return cfg_.extra_buffer_samples;
  return bulk_delay_samples();
}

double ForwardPipeline::max_delay_s() const {
  return (static_cast<double>(bulk_delay_samples()) +
          static_cast<double>(cfg_.prefilter.size() - 1)) /
         cfg_.sample_rate_hz;
}

Complex ForwardPipeline::push(Complex rx) {
  Complex out;
  process_into(CSpan{&rx, 1}, CMutSpan{&out, 1});
  return out;
}

CVec ForwardPipeline::process(CSpan rx) {
  CVec out(rx.size());
  process_into(rx, out);
  return out;
}

// The composite FIR from `in` to `out`, then the output rotator when the CFO
// is not restored, at precision T. Double filters straight into `out`; float
// narrows `in` once into f32 slot 1, runs there in place and widens once
// into `out`. Slot 0 is per-pass scratch.
template <typename T>
void ForwardPipeline::run_filter(dsp::FirFilter<T>& filter, CSpan in, CMutSpan out) {
  const std::span<const std::complex<T>> x = dsp::kernels::block_at<T>(in, ws_, 1);
  std::span<std::complex<T>> y;
  if constexpr (std::is_same_v<T, double>)
    y = out;
  else
    y = ws_.get<float>(1, in.size());
  filter.process_into(x, y, ws_);
  if (!cfg_.restore_cfo) out_rotator_.process_into(y, y, ws_);
  dsp::kernels::store_block<T>(y, out);
}

void ForwardPipeline::process_into(CSpan rx, CMutSpan out) {
  FF_CHECK_MSG(out.size() == rx.size(),
               "ForwardPipeline::process_into needs out.size() == rx.size(), got "
                   << out.size() << " vs " << rx.size());
  const std::uint64_t scrubbed_before = scrubbed_;
  const std::size_t n = rx.size();
  if (n > 0) {
    // Pass-wise over the block. Every pass is causal (sample i of a pass's
    // output depends only on samples <= i of its input), so running them
    // block-at-a-time instead of interleaved per sample moves no arithmetic
    // and changes no bits. Scrubbing and the FIFO run on the double-width
    // values (the scrub test must see the original sample; the FIFO is a
    // pure shuffle and widen() is exact).
    CSpan in = rx;
    // A block's energy is finite unless a sample is not (or the block is
    // near overflow, which the exact loop then sorts out): one vectorized
    // reduction spares the clean common case a scrubbing copy.
    if (cfg_.scrub_nonfinite && !std::isfinite(dsp::kernels::magsq_accum(rx))) {
      for (std::size_t i = 0; i < n; ++i) {
        Complex v = rx[i];
        if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
          v = Complex{};
          ++scrubbed_;
        }
        out[i] = v;
      }
      in = out;
    }
    std::visit([&](auto& filter) { run_filter(filter, in, out); }, filter_);
    if (delay_fifo_len() > 0) {
      // Remaining bulk delay FIFO (converter latency when no TX filter
      // models it, plus any artificial buffering).
      for (std::size_t i = 0; i < n; ++i) {
        const Complex s = out[i];
        out[i] = delay_line_[delay_pos_];
        delay_line_[delay_pos_] = s;
        ++delay_pos_;
        if (delay_pos_ == delay_line_.size()) delay_pos_ = 0;
      }
    }
  }
  // Counted per batch, not per sample: the hot loops stay metrics-free.
  metrics::add(cfg_.metrics, "relay.pipeline.samples", rx.size());
  if (scrubbed_ > scrubbed_before)
    metrics::add(cfg_.metrics, "relay.pipeline.scrubbed", scrubbed_ - scrubbed_before);
  // Workspace growth only ever happens in the first blocks; quiet
  // ff.alloc.workspace[_f32]_grows counters are the telemetry proof that the
  // steady-state path performs zero heap allocations.
  report_workspace_growth<double>("ff.alloc.workspace_grows", "ff.alloc.workspace_bytes",
                                  ws_grows_reported_);
  report_workspace_growth<float>("ff.alloc.workspace_f32_grows",
                                 "ff.alloc.workspace_f32_bytes", ws_f32_grows_reported_);
}

template <typename T>
void ForwardPipeline::report_workspace_growth(const char* grows_name,
                                              const char* bytes_name,
                                              std::uint64_t& reported) {
  if (!cfg_.metrics || ws_.grows<T>() <= reported) return;
  metrics::add(cfg_.metrics, grows_name, ws_.grows<T>() - reported);
  reported = ws_.grows<T>();
  metrics::set(cfg_.metrics, bytes_name, static_cast<double>(ws_.bytes<T>()));
}

void ForwardPipeline::reset() {
  out_rotator_.reset();
  std::visit([](auto& filter) { filter.reset(); }, filter_);
  std::fill(delay_line_.begin(), delay_line_.end(), Complex{});
  delay_pos_ = 0;
  // A reset pipeline should report like a fresh one; leaving the scrub count
  // behind double-counted glitches across experiment repetitions.
  scrubbed_ = 0;
}

}  // namespace ff::relay
