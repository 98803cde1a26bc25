#include "relay/pipeline.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "dsp/kernels/kernels.hpp"

namespace ff::relay {

ForwardPipeline::ForwardPipeline(PipelineConfig cfg)
    : cfg_(std::move(cfg)),
      cfo_remove_(-cfg_.cfo_hz, cfg_.sample_rate_hz),
      cfo_restore_(cfg_.restore_cfo ? cfg_.cfo_hz : 0.0, cfg_.sample_rate_hz),
      stages_(make_stages(cfg_)),
      delay_line_(std::max<std::size_t>(delay_fifo_len(), 1), Complex{}) {
  FF_CHECK(!cfg_.prefilter.empty());
  FF_CHECK_MSG(std::isfinite(cfg_.sample_rate_hz) && cfg_.sample_rate_hz > 0.0,
               "PipelineConfig.sample_rate_hz must be positive and finite, got "
                   << cfg_.sample_rate_hz);
  FF_CHECK_MSG(std::isfinite(cfg_.cfo_hz), "PipelineConfig.cfo_hz must be finite");
  FF_CHECK_MSG(std::isfinite(cfg_.gain_db), "PipelineConfig.gain_db must be finite");
  FF_CHECK_MSG(std::isfinite(cfg_.analog_rotation.real()) &&
                   std::isfinite(cfg_.analog_rotation.imag()),
               "PipelineConfig.analog_rotation must be finite");
  record_construction_gauges();
}

auto ForwardPipeline::make_stages(const PipelineConfig& cfg) -> AtPrecision<Stages> {
  return at_precision<Stages>(cfg.precision, [&cfg]<typename T>(T) {
    using dsp::kernels::to_precision;
    return Stages<T>{
        dsp::FirFilter<T>(to_precision<T>(cfg.prefilter)),
        dsp::FirFilter<T>(to_precision<T>(
            cfg.tx_filter.empty() ? CVec{Complex{1.0, 0.0}} : cfg.tx_filter)),
        std::complex<T>(amplitude_from_db(cfg.gain_db) * cfg.analog_rotation)};
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

// CFO remove -> digital CNF -> CFO restore -> amplify -> analog CNF -> DAC/TX
// reconstruction filter, on the block at precision T (narrowed once on entry
// and widened once on exit for float; slot 0 is per-stage scratch).
template <typename T>
void ForwardPipeline::run_stages(Stages<T>& st, CMutSpan block) {
  const std::span<std::complex<T>> buf = dsp::kernels::block_at<T>(block, ws_, 1);
  cfo_remove_.process_into(buf, buf, ws_);
  st.prefilter.process_into(buf, buf, ws_);
  cfo_restore_.process_into(buf, buf, ws_);
  dsp::kernels::scale(st.gain_rotation, buf, buf);
  if (!cfg_.tx_filter.empty()) st.tx_filter.process_into(buf, buf, ws_);
  dsp::kernels::store_block<T>(buf, block);
}

void ForwardPipeline::process_into(CSpan rx, CMutSpan out) {
  FF_CHECK_MSG(out.size() == rx.size(),
               "ForwardPipeline::process_into needs out.size() == rx.size(), got "
                   << out.size() << " vs " << rx.size());
  const std::uint64_t scrubbed_before = scrubbed_;
  const std::size_t n = rx.size();
  if (n > 0) {
    // Stage-wise over the block. Every stage is causal (sample i of a
    // stage's output depends only on samples <= i of its input), so running
    // the stages block-at-a-time instead of interleaved per sample moves no
    // arithmetic and changes no bits. Scrubbing and the FIFO run on the
    // double-width values (the scrub test must see the original sample; the
    // FIFO is a pure shuffle and widen() is exact).
    if (cfg_.scrub_nonfinite) {
      for (std::size_t i = 0; i < n; ++i) {
        Complex v = rx[i];
        if (!std::isfinite(v.real()) || !std::isfinite(v.imag())) {
          v = Complex{};
          ++scrubbed_;
        }
        out[i] = v;
      }
    } else if (out.data() != rx.data()) {
      std::copy(rx.begin(), rx.end(), out.begin());
    }
    std::visit([&](auto& stages) { run_stages(stages, out); }, stages_);
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
  cfo_remove_.reset();
  cfo_restore_.reset();
  std::visit(
      [](auto& stages) {
        stages.prefilter.reset();
        stages.tx_filter.reset();
      },
      stages_);
  std::fill(delay_line_.begin(), delay_line_.end(), Complex{});
  delay_pos_ = 0;
  // A reset pipeline should report like a fresh one; leaving the scrub count
  // behind double-counted glitches across experiment repetitions.
  scrubbed_ = 0;
}

}  // namespace ff::relay
