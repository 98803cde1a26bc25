// downlink_ref and downlink_pipelined_f32: the full downlink session graph
// (packet source, CFO, tee, two noisy channels, relay, noise-free channel,
// add, sink) run to completion again and again for the measured window,
// each session followed by the client decoding every packet.
//
// Latency is per block: from the moment the source generated a block to
// the moment the sink consumed the block at the same stream position. The
// source and sink are the library's PacketSource and AccumulatorSink with
// one clock read added per block (subclasses below), so the graph is the
// same eleven elements as examples/relay.ff.
#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/seeding.hpp"
#include "common/telemetry.hpp"
#include "dsp/resample.hpp"
#include "phy/frame.hpp"
#include "session.hpp"
#include "stream/graph.hpp"
#include "stream/lang.hpp"
#include "stream/scheduler.hpp"

namespace ffbench {

using namespace ff;

namespace {

class StampedPacketSource : public stream::PacketSource {
 public:
  explicit StampedPacketSource(std::string name) : PacketSource(std::move(name)) {}
  std::vector<Clock::time_point> emitted;  // by block index

 protected:
  CVec generate() override {
    CVec v = PacketSource::generate();
    emitted.push_back(Clock::now());
    return v;
  }
};

class StampedSink : public stream::AccumulatorSink {
 public:
  explicit StampedSink(std::string name) : AccumulatorSink(std::move(name)) {}
  std::vector<std::pair<std::uint64_t, Clock::time_point>> arrived;  // (start, time)

 protected:
  void consume(const stream::Block& block) override {
    AccumulatorSink::consume(block);
    arrived.emplace_back(block.start, Clock::now());
  }
};

const stream::ElementRegistry& bench_registry() {
  static const stream::ElementRegistry reg = [] {
    stream::ElementRegistry r = stream::ElementRegistry::builtin();
    r.add<StampedPacketSource>("StampedPacketSource");
    r.add<StampedSink>("StampedSink");
    return r;
  }();
  return reg;
}

struct Flavor {
  Precision precision;
  stream::SchedulerMode mode;
  std::size_t threads;
  std::size_t batch;
};

/// One built, not yet run, session graph.
struct BuiltSession {
  std::unique_ptr<stream::Graph> graph;
  StampedPacketSource* src = nullptr;
  StampedSink* sink = nullptr;
};

BuiltSession build_session(const stream::GraphSpec& spec) {
  BuiltSession b;
  b.graph = std::make_unique<stream::Graph>();
  stream::build_graph(*b.graph, spec, bench_registry());
  b.src = dynamic_cast<StampedPacketSource*>(b.graph->find("src"));
  b.sink = dynamic_cast<StampedSink*>(b.graph->find("sink"));
  if (!b.src || !b.sink) throw std::runtime_error("downlink graph lost its src/sink");
  return b;
}

/// Median time per block of element `e`. In throughput mode an element
/// times each batch it drains as one observation, so the batch median is
/// scaled by the mean blocks per observation (1 on the reference scheduler).
double element_block_us_p50(const MetricsSnapshot& snap, const std::string& e) {
  double p50 = 0.0, observations = 0.0, blocks = 0.0;
  for (const MetricValue& m : snap.timers)
    if (m.name == "stream." + e + ".block_us") {
      p50 = m.p50;
      observations = static_cast<double>(m.count);
    }
  for (const MetricValue& m : snap.counters)
    if (m.name == "stream." + e + ".blocks") blocks = static_cast<double>(m.count);
  return blocks > 0.0 ? p50 * observations / blocks : p50;
}

/// Nanoseconds per complex Gaussian draw, replayed on the noise stream a
/// channel element with this seed draws from.
double rng_draw_ns(std::uint64_t seed, double power, bool f32, std::size_t n) {
  Rng rng = seeding::named_stream(seed, "noise");
  Complex acc{0.0, 0.0};
  const auto t0 = Clock::now();
  if (f32) {
    Complex32 a{0.0f, 0.0f};
    for (std::size_t i = 0; i < n; ++i) a += rng.cgaussian32(static_cast<float>(power));
    acc = Complex{a.real(), a.imag()};
  } else {
    for (std::size_t i = 0; i < n; ++i) acc += rng.cgaussian(power);
  }
  const double ns = us_between(t0, Clock::now()) * 1e3 / static_cast<double>(n);
  volatile double sink = acc.real();  // keep the draws observable
  (void)sink;
  return ns;
}

Outcome run_downlink(const Options& opt, Tracer& tracer, const Flavor& fl) {
  Outcome out;
  out.context["precision"] = to_string(fl.precision);
  out.context["scheduler"] =
      fl.mode == stream::SchedulerMode::kThroughput ? "throughput" : "reference";
  out.context["threads"] = std::to_string(fl.threads);
  out.context["batch"] = std::to_string(fl.batch);

  // ---- inputs: the seeded link and packet stream (not set-up).
  const auto wall0 = Clock::now();
  SessionDesign s = session_inputs(opt.seed, 1, fl.precision);
  // 0.5 ms of air time at 80 Msps per session (five packets), so a run
  // holds hundreds of sessions (see kBetterTwentieth); the tiny size is half
  // of that.
  const double air_s = opt.tiny ? 0.25e-3 : 0.5e-3;
  const std::size_t packets =
      std::max<std::size_t>(1, static_cast<std::size_t>(air_s * s.fs_hi) / s.stride);
  s.packets.n_packets = packets;

  // ---- set-up, several times: relay design, graph text, parse, build.
  std::vector<double> setup;
  stream::GraphSpec spec;
  BuiltSession first;
  while (!setup_done(opt, setup)) {
    const auto t0 = Clock::now();
    design_relay(s);
    spec = stream::parse_graph(
        downlink_graph_text(s, "StampedPacketSource", "StampedSink"), "<downlink>");
    first = build_session(spec);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  out.e2e["setup_s"] = median(setup);

  const phy::Receiver receiver(s.testbed.ofdm);
  const std::size_t stride20 = s.stride / kOversample;

  MetricsRegistry reg;
  stream::SchedulerConfig sc;
  sc.mode = fl.mode;
  sc.threads = fl.threads;
  sc.batch_size = fl.batch;
  if (tracer.enabled()) sc.metrics = &reg;

  Tracer::Lane& lane = tracer.lane();
  const auto n_session = tracer.name("session");
  const auto n_run = tracer.name("stream.scheduler.run");
  const auto n_decode = tracer.name("phy.decode");

  // Per-session figures (a session is one window, see kBetterTwentieth).
  std::vector<double> session_p50, session_p90, session_rate;
  std::size_t latency_blocks = 0;
  double rss_mb = 0.0;
  double session_wall_s = 0.0, run_wall_s = 0.0;
  std::uint64_t samples_out = 0;
  std::uint64_t first_checksum = 0;
  std::size_t sessions = 0;

  const auto window_start = Clock::now();
  while (sessions == 0 || seconds_between(window_start, Clock::now()) < opt.seconds) {
    BuiltSession b = sessions == 0 ? std::move(first) : build_session(spec);
    b.src->emitted.reserve(packets * s.stride / kBlock + 2);
    b.sink->arrived.reserve(packets * s.stride / kBlock + 2);

    const auto t0 = Clock::now();
    const Tracer::SpanId sess = lane.begin(n_session, static_cast<std::int64_t>(sessions));
    {
      ScopedSpan run(lane, n_run, static_cast<std::int64_t>(sessions), sess);
      stream::Scheduler(*b.graph, sc).run();
    }
    const CVec rx = b.sink->take();
    const CVec rx20 = dsp::downsample(rx, kOversample);
    std::size_t ok = 0;
    for (std::size_t k = 0; k < packets; ++k) {
      const std::size_t begin = k * stride20;
      if (begin >= rx20.size()) break;
      const std::size_t len = std::min(stride20, rx20.size() - begin);
      ScopedSpan dec(lane, n_decode, static_cast<std::int64_t>(k), sess);
      const auto r = receiver.receive(CSpan{rx20.data() + begin, len});
      if (r && r->crc_ok) ++ok;
    }
    const auto t1 = Clock::now();
    lane.end(sess);

    session_wall_s += seconds_between(t0, t1);
    samples_out += rx.size();
    std::vector<double> lat;
    lat.reserve(b.sink->arrived.size());
    for (const auto& [start, t] : b.sink->arrived) {
      const std::size_t idx = static_cast<std::size_t>(start / kBlock);
      if (idx < b.src->emitted.size()) lat.push_back(us_between(b.src->emitted[idx], t));
    }
    latency_blocks += lat.size();
    session_p50.push_back(quantile(lat, 0.50));
    session_p90.push_back(quantile(lat, 0.90));
    session_rate.push_back(static_cast<double>(rx.size()) / seconds_between(t0, t1));

    // Gates: every packet decodes with a good CRC, and every repetition of
    // the (identical) session produces the identical output stream.
    out.attempted += packets;
    if (ok != packets)
      out.fail(packets - ok, "session " + std::to_string(sessions) + ": " +
                                 std::to_string(packets - ok) + " of " +
                                 std::to_string(packets) + " packets failed to decode");
    const std::uint64_t h = hash_samples(CSpan{rx.data(), rx.size()});
    if (sessions == 0) {
      first_checksum = h;
    } else if (h != first_checksum) {
      out.fail(ok, "session " + std::to_string(sessions) +
                       ": output differs from the first repetition");
    }
    // Peak RSS after the first session, a fixed amount of work: later, the
    // allocator's reuse of freed session buffers made the peak jump between
    // two levels from run to run.
    if (sessions == 0) rss_mb = peak_rss_mb();
    ++sessions;
  }
  out.result_checksum = first_checksum;

  out.e2e["latency_p50_us"] = quantile(session_p50, kBetterTwentieth);
  out.e2e["latency_p90_us"] = quantile(session_p90, kBetterTwentieth);
  out.e2e["throughput_per_s"] = quantile(session_rate, 1.0 - kBetterTwentieth);
  out.e2e["peak_rss_mb"] = rss_mb;
  out.counts["latency_samples"] = static_cast<double>(latency_blocks);
  out.counts["mean_throughput_per_s"] = static_cast<double>(samples_out) / session_wall_s;
  out.counts["sessions"] = static_cast<double>(sessions);
  out.counts["packets_per_session"] = static_cast<double>(packets);
  out.counts["samples_per_session"] = static_cast<double>(samples_out / sessions);
  out.counts["window_s"] = seconds_between(wall0, Clock::now());

  if (!tracer.enabled()) return out;

  // ---- per-layer numbers: element timers from the graph's registry,
  // spans around the scheduler and the decoder, and noise-draw replays.
  const MetricsSnapshot snap = reg.snapshot();
  double element_us = 0.0, busiest_us = 0.0;
  for (const MetricValue& m : snap.timers) {
    if (m.name.rfind("stream.", 0) != 0) continue;
    element_us += m.sum;
    busiest_us = std::max(busiest_us, m.sum);
  }
  for (const char* e : {"src", "src_cfo", "chan_sd", "chan_sr", "chan_rd", "relay", "add"})
    out.layer[std::string("stream.") + e + ".block_us_p50"] = element_block_us_p50(snap, e);
  out.layer["channel.noise_us_p50"] =
      out.layer["stream.chan_sd.block_us_p50"] - out.layer["stream.chan_rd.block_us_p50"];
  const std::size_t draws = opt.tiny ? 20000 : 400000;
  out.layer["common.rng.cgaussian_ns"] = rng_draw_ns(s.sd.seed, s.sd.noise_power, false, draws);
  out.layer["common.rng.cgaussian32_ns"] = rng_draw_ns(s.sd.seed, s.sd.noise_power, true, draws);
  out.layer["phy.decode_us_p50"] = median(tracer.durations_us("phy.decode"));
  const double sessions_d = static_cast<double>(sessions);
  for (const auto& d : tracer.durations_us("stream.scheduler.run")) run_wall_s += d * 1e-6;
  auto counter = [&snap](const std::string& prefix, const std::string& suffix) {
    std::uint64_t sum = 0;
    for (const MetricValue& m : snap.counters)
      if (m.name.rfind(prefix, 0) == 0 && m.name.size() >= suffix.size() &&
          m.name.compare(m.name.size() - suffix.size(), suffix.size(), suffix) == 0)
        sum += m.count;
    return static_cast<double>(sum);
  };
  if (fl.mode == stream::SchedulerMode::kReference) {
    out.layer["stream.scheduler.self_share"] = 1.0 - element_us * 1e-6 / run_wall_s;
    out.layer["stream.scheduler.rounds"] =
        counter("stream.scheduler.rounds", "") / sessions_d;
  } else {
    out.layer["stream.ring.transfers"] = counter("stream.ring.transfers", "") / sessions_d;
    out.layer["stream.ring.push_stalls"] = counter("stream.ring.", ".push_stalls") / sessions_d;
    out.layer["stream.ring.pop_stalls"] = counter("stream.ring.", ".pop_stalls") / sessions_d;
    out.layer["stream.bottleneck_share"] = busiest_us * 1e-6 / run_wall_s;
  }
  out.layer["session_packets_failed_ratio"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  return out;
}

}  // namespace

Outcome run_downlink_ref(const Options& opt, Tracer& tracer) {
  return run_downlink(opt, tracer,
                      {Precision::kF64, stream::SchedulerMode::kReference, 1, 1});
}

Outcome run_downlink_pipelined_f32(const Options& opt, Tracer& tracer) {
  return run_downlink(opt, tracer,
                      {Precision::kF32, stream::SchedulerMode::kThroughput, 3, 8});
}

}  // namespace ffbench
