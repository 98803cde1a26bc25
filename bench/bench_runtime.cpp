// Runtime telemetry for the evaluation engine: wall time of the standard
// full-evaluation run at 1/2/4/N threads (with a bit-exactness checksum at
// every thread count), plus best-of wall times for the hot micro-kernels.
// Emits machine-readable BENCH_runtime.json so perf PRs have a baseline to
// compare against.
//
// With --metrics, every thread-count run also records telemetry into a
// fresh MetricsRegistry and the runs are cross-checked: the ff-metrics-v1
// JSON (excluding wall-clock timer values) must be byte-identical at every
// thread count — the registry's own determinism contract. The 1-thread
// run's full snapshot is written to the given path.
//
// The stream_relay kernel times the streaming element-graph runtime
// (src/stream/) pushing a full relay session — packet source, direct and
// relayed paths, superposition — through bounded blocks, and cross-checks
// that the output checksum is identical across block sizes and thread
// counts (the runtime's block-size/thread invariance contract). The
// stream_relay_throughput kernel times the same session under the pipeline
// scheduler (auto chain count, --batch-size blocks per ring transfer,
// --pin-cores to bind workers) and cross-checks its checksum against the
// reference row; both modes are always measured, so StreamCli's --mode is
// ignored here. Knobs: --block-size / --duration / --backpressure /
// --threads (eval::StreamCli, shared with examples/streaming_relay).
//
// The city row (v4) times the sharded many-relay city simulation
// (src/city/): client-sessions/sec, the whole-city FF throughput CDF, and
// the measured FastForward-vs-half-duplex-mesh gain, with the shard x
// thread determinism grid (checksums AND streamed JSONL bytes) folded into
// the exit code. Knobs: --city-grid / --city-clients.
//
// Usage: bench_runtime [--clients N] [--out PATH] [--reps R] [--metrics PATH]
//                      [--block-size N] [--duration S] [--backpressure B]
//                      [--batch-size N] [--pin-cores]
//                      [--city-grid N] [--city-clients N]
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench_common.hpp"
#include "channel/floorplan.hpp"
#include "city/city.hpp"
#include "city/jsonl.hpp"
#include "common/parallel.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/kernels/kernels.hpp"
#include "eval/timedomain.hpp"
#include "phy/frame.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/scheduler.hpp"

namespace {

using namespace ffbench;

struct ExperimentTiming {
  std::size_t threads = 0;
  double wall_ms = 0.0;
  std::uint64_t checksum = 0;
  std::string metrics_canonical;  // to_json(false): timer values excluded
  std::string metrics_full;       // to_json(true)
};

ExperimentTiming time_experiment(std::size_t clients, std::size_t threads,
                                 bool with_metrics) {
  MetricsRegistry registry;
  const auto cfg = ExperimentConfig::for_testbed(TestbedPreset::kMimo2x2)
                       .with_clients(clients)
                       .with_seed(20140817)  // same seed as standard_run()
                       .with_threads(threads)
                       .with_metrics(with_metrics ? &registry : nullptr);
  ExperimentTiming t;
  t.threads = threads;
  ExperimentResults results;
  t.wall_ms = time_once_ms([&] { results = run_experiment(cfg); });
  t.checksum = results_checksum(results);
  if (with_metrics) {
    const MetricsSnapshot snap = registry.snapshot();
    t.metrics_canonical = snap.to_json(/*include_timer_values=*/false);
    t.metrics_full = snap.to_json();
  }
  return t;
}

struct KernelTiming {
  std::string name;
  double wall_ms = 0.0;   // best-of-reps for one batch
  std::size_t items = 0;  // operations per batch
};

std::vector<KernelTiming> time_kernels(int reps) {
  std::vector<KernelTiming> out;
  Rng rng(1);

  {
    // 64-point forward/inverse transforms: the OFDM modem's innermost loop.
    const dsp::FftPlan<>& plan = dsp::FftPlan<>::cached(64);
    CVec x(64);
    for (auto& v : x) v = rng.cgaussian();
    constexpr std::size_t kBatch = 20000;
    out.push_back({"fft64_forward",
                   time_best_ms([&] { for (std::size_t i = 0; i < kBatch; ++i) plan.forward(x); },
                                reps),
                   kBatch});
    out.push_back({"fft64_inverse",
                   time_best_ms([&] { for (std::size_t i = 0; i < kBatch; ++i) plan.inverse(x); },
                                reps),
                   kBatch});
    // The float32 twin: same transform, double the SIMD lanes per register.
    // Paired with fft64_forward so the width gain is a row-to-row ratio.
    const dsp::FftPlan<float>& plan32 = dsp::FftPlan<float>::cached(64);
    dsp::kernels::AlignedCVec32 x32(64);
    dsp::kernels::narrow(x, x32);
    out.push_back({"fft64_forward_f32",
                   time_best_ms(
                       [&] { for (std::size_t i = 0; i < kBatch; ++i) plan32.forward(x32); },
                       reps),
                   kBatch});
  }
  {
    const dsp::FftPlan<>& plan = dsp::FftPlan<>::cached(1024);
    CVec x(1024);
    for (auto& v : x) v = rng.cgaussian();
    constexpr std::size_t kBatch = 2000;
    out.push_back({"fft1024_inverse",
                   time_best_ms([&] { for (std::size_t i = 0; i < kBatch; ++i) plan.inverse(x); },
                                reps),
                   kBatch});
  }
  {
    // One full-location evaluation (link synthesis + every scheme's design):
    // the unit of work the parallel engine schedules.
    const TestbedConfig tb;
    const auto plan = channel::FloorPlan::paper_home();
    const auto placement = make_placement(plan);
    SchemeOptions sopts;
    sopts.design = default_design_options(tb);
    Rng loc_rng(42);
    out.push_back({"evaluate_location",
                   time_best_ms(
                       [&] {
                         Rng r = loc_rng;  // identical draws every rep
                         const auto link = build_link(placement, {6.0, 4.0}, tb, r);
                         const auto res = evaluate_location(link, sopts);
                         if (res.ap_only_mbps < 0.0) std::abort();  // keep it live
                       },
                       reps),
                   1});
  }
  {
    // Full packet decode through the SISO receiver (FFT cache beneficiary).
    const phy::OfdmParams params;
    const phy::Transmitter tx(params);
    const phy::Receiver rx(params);
    std::vector<std::uint8_t> payload(400);
    for (auto& b : payload) b = rng.bernoulli(0.5) ? 1 : 0;
    const CVec pkt = tx.modulate(payload, {.mcs_index = 4});
    constexpr std::size_t kBatch = 20;
    out.push_back({"packet_decode",
                   time_best_ms(
                       [&] {
                         for (std::size_t i = 0; i < kBatch; ++i) {
                           const auto r = rx.receive(pkt);
                           if (!r || !r->crc_ok) std::abort();
                         }
                       },
                       reps),
                   kBatch});
  }
  return out;
}

// --------------------------------------------------------------- streaming

/// Everything the stream_relay sessions share: one time-domain link, the FF
/// pipeline designed for it, and the packet schedule sized from --duration.
struct StreamSetup {
  TimeDomainLink link;
  relay::PipelineConfig pipeline;
  ff::stream::PacketSourceConfig packets;
  double fs_hi = 0.0;
  ff::Precision precision = ff::Precision::kF64;
};

StreamSetup make_stream_setup(double duration_s,
                              ff::Precision precision = ff::Precision::kF64) {
  constexpr std::size_t kOversample = 4;  // the evaluator's converter rate
  const TestbedConfig tb;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = make_placement(plan);
  Rng rng(20140817);

  StreamSetup s;
  s.link = build_td_link(placement, {6.0, 4.0}, tb, rng);
  s.fs_hi = tb.ofdm.sample_rate_hz * static_cast<double>(kOversample);
  s.pipeline = make_ff_pipeline(s.link, tb.ofdm, /*extra_latency_s=*/0.0);
  s.precision = precision;
  s.pipeline.precision = precision;

  s.packets.params = tb.ofdm;
  s.packets.mcs_index = 3;
  s.packets.payload_bits = 600;
  s.packets.gap_samples = 400 * kOversample;
  s.packets.oversample = kOversample;
  s.packets.seed = 20140817;
  const phy::Transmitter tx(tb.ofdm);
  const std::size_t stride =
      tx.modulate(std::vector<std::uint8_t>(s.packets.payload_bits, 0),
                  {.mcs_index = s.packets.mcs_index})
              .size() *
          kOversample +
      s.packets.gap_samples;
  const auto want = static_cast<std::size_t>(duration_s * s.fs_hi);
  s.packets.n_packets = std::max<std::size_t>(1, want / stride);
  return s;
}

struct StreamRun {
  std::uint64_t samples = 0;
  std::uint64_t blocks = 0;
  std::uint64_t checksum = 0;
};

/// Scheduler selection for one stream run (reference rounds by default).
struct StreamExec {
  bool throughput = false;
  std::size_t batch_size = 1;
  bool pin_cores = false;
};

/// One full streaming session: packet source -> tee -> {direct channel,
/// S->R channel -> relay pipeline -> R->D channel} -> superposition -> sink.
/// The same graph shape as examples/streaming_relay, self-checked here via
/// an FNV-1a checksum of the output stream.
StreamRun run_stream_once(const StreamSetup& s, std::size_t block_size,
                          std::size_t backpressure, std::size_t threads,
                          const StreamExec& exec = {}) {
  namespace st = ff::stream;
  const std::size_t cap = backpressure;
  st::Graph g;
  auto* src = g.emplace<st::PacketSource>("src", s.packets, block_size);
  auto* cfo = g.emplace<st::CfoElement>("src_cfo", s.link.source_cfo_hz, s.fs_hi,
                                        s.precision);
  auto* tee = g.emplace<st::Tee>("tee", 2);

  st::ChannelElementConfig sd;
  sd.channel = s.link.sd;
  sd.sample_rate_hz = s.fs_hi;
  sd.noise_power = power_from_db(s.link.dest_noise_dbm) * 4.0;
  sd.seed = s.packets.seed ^ 0xD5;
  sd.precision = s.precision;
  auto* chan_sd = g.emplace<st::ChannelElement>("chan_sd", sd);
  auto* q = g.emplace<st::Queue>("q");

  st::ChannelElementConfig sr;
  sr.channel = s.link.sr;
  sr.sample_rate_hz = s.fs_hi;
  sr.noise_power = power_from_db(s.link.relay_noise_dbm) * 4.0;
  sr.seed = s.packets.seed ^ 0x5F;
  sr.precision = s.precision;
  auto* chan_sr = g.emplace<st::ChannelElement>("chan_sr", sr);
  auto* relay = g.emplace<st::PipelineElement>("relay", s.pipeline);

  st::ChannelElementConfig rd;
  rd.channel = s.link.rd;
  rd.sample_rate_hz = s.fs_hi;
  rd.seed = s.packets.seed ^ 0xFD;
  rd.precision = s.precision;
  auto* chan_rd = g.emplace<st::ChannelElement>("chan_rd", rd);

  auto* add = g.emplace<st::Add2>("add");
  auto* sink = g.emplace<st::AccumulatorSink>("sink");

  g.connect(*src, 0, *cfo, 0, cap);
  g.connect(*cfo, 0, *tee, 0, cap);
  g.connect(*tee, 0, *chan_sd, 0, cap);
  g.connect(*chan_sd, 0, *q, 0, cap);
  g.connect(*q, 0, *add, 0, cap);
  g.connect(*tee, 1, *chan_sr, 0, cap);
  g.connect(*chan_sr, 0, *relay, 0, cap);
  g.connect(*relay, 0, *chan_rd, 0, cap);
  g.connect(*chan_rd, 0, *add, 1, cap);
  g.connect(*add, 0, *sink, 0, cap);

  st::SchedulerConfig sc;
  sc.threads = threads;
  if (exec.throughput) {
    sc.mode = st::SchedulerMode::kThroughput;
    sc.batch_size = exec.batch_size;
    sc.pin_cores = exec.pin_cores;
  }
  st::Scheduler(g, sc).run();

  StreamRun r;
  r.blocks = sink->blocks_seen();
  const CVec out = sink->take();
  r.samples = out.size();
  r.checksum = fnv1a_accumulate(0xCBF29CE484222325ULL, out.data(),
                                out.size() * sizeof(Complex));
  return r;
}

// -------------------------------------------------------------------- city

struct CityBench {
  ff::city::CityRun run;            // 1-thread reference run
  double wall_ms_1t = 0.0;          // 1 worker thread, auto shards
  double wall_ms = 0.0;             // hardware-default worker threads
  double sessions_per_sec = 0.0;    // from the hardware-default run
  bool deterministic = true;        // checksums AND JSONL bytes across the grid
};

/// Time the city simulation at 1 thread and at the hardware default, then
/// re-run it across shard counts {1,2,4,8} x thread counts {1,2,4} with a
/// JSONL sink attached: every run must reproduce the reference checksum and
/// the streamed bytes exactly (the city's execution-schedule-independence
/// contract, tests/city_test.cpp).
CityBench run_city_bench(std::size_t grid, std::size_t clients_per_site,
                         MetricsRegistry* registry) {
  namespace ct = ff::city;
  const auto base = [&] {
    return ct::CityConfig::grid(grid, grid)
        .with_clients(clients_per_site)
        .with_seed(20140817);  // same seed family as the experiment sweep
  };

  CityBench b;
  {
    auto cfg = base().with_threads(1).with_metrics(registry);
    b.wall_ms_1t = time_once_ms([&] { b.run = ct::run_city(cfg); });
  }
  {
    auto cfg = base();  // threads = 0: FF_THREADS / hardware default
    ct::CityRun run_auto;
    b.wall_ms = time_once_ms([&] { run_auto = ct::run_city(cfg); });
    if (run_auto.checksum != b.run.checksum) b.deterministic = false;
  }
  b.sessions_per_sec = b.wall_ms > 0.0
                           ? 1e3 * static_cast<double>(b.run.summary.sessions) / b.wall_ms
                           : 0.0;

  std::string jsonl_reference;
  for (const std::size_t shards : {1, 2, 4, 8}) {
    for (const std::size_t threads : {1, 2, 4}) {
      std::ostringstream os;
      ct::JsonlWriter writer(os, "<bench>");
      ct::JsonlSessionSink sink(writer);
      auto cfg = base().with_shards(shards).with_threads(threads);
      const ct::CityRun r = ct::run_city(cfg, &sink);
      writer.close();
      if (r.checksum != b.run.checksum) b.deterministic = false;
      if (jsonl_reference.empty())
        jsonl_reference = os.str();
      else if (os.str() != jsonl_reference)
        b.deterministic = false;
    }
  }
  return b;
}

}  // namespace

int main(int argc, char** argv) {
  std::size_t clients = 50;
  std::size_t city_grid = 3;
  std::size_t city_clients = 4;
  std::string out_path = "BENCH_runtime.json";
  std::string metrics_path;
  int reps = 3;
  StreamCli stream_cli;
  Cli cli("bench_runtime",
          "Wall-time the standard evaluation run at 1/2/4/N threads with "
          "bit-exactness checksums, plus hot micro-kernel timings, the "
          "stream_relay element-graph session, and the sharded city "
          "simulation.");
  cli.add_option("--clients", &clients, "client locations per floor plan")
      .add_option("--out", &out_path, "output JSON path")
      .add_option("--reps", &reps, "best-of repetitions for the kernel timings")
      .add_option("--metrics", &metrics_path,
                  "record telemetry, cross-check it across thread counts, and "
                  "write the 1-thread ff-metrics-v1 snapshot here")
      .add_option("--city-grid", &city_grid,
                  "city simulation grid dimension (N x N AP+relay sites)")
      .add_option("--city-clients", &city_clients,
                  "client locations per city site");
  // --threads here scopes to the stream session; the experiment sweep is
  // fixed at 1/2/4/N by design.
  stream_cli.register_options(cli, /*with_metrics_option=*/false);
  if (!cli.parse(argc, argv)) return cli.exit_code();
  if (!stream_cli.validate()) return 2;
  const bool with_metrics = !metrics_path.empty();

  const std::size_t hw_threads = ff::default_thread_count();
  std::vector<std::size_t> thread_counts{1, 2, 4};
  if (hw_threads > 4) thread_counts.push_back(hw_threads);

  std::printf("bench_runtime: standard_run(%zu) at 1/2/4/N threads "
              "(hardware default: %zu, kernel ISA: %s)\n\n",
              clients, hw_threads, dsp::kernels::isa_name());

  std::vector<ExperimentTiming> timings;
  for (const std::size_t t : thread_counts)
    timings.push_back(time_experiment(clients, t, with_metrics));

  bool deterministic = true;
  for (const auto& t : timings)
    if (t.checksum != timings.front().checksum) deterministic = false;

  // Metrics determinism: identical snapshot bytes (timer values aside) no
  // matter how the work was sharded. Vacuously true when metrics are off.
  bool metrics_deterministic = true;
  for (const auto& t : timings)
    if (t.metrics_canonical != timings.front().metrics_canonical)
      metrics_deterministic = false;

  Table table({"threads", "wall (ms)", "speedup vs 1T", "checksum"});
  char cs[32];
  for (const auto& t : timings) {
    std::snprintf(cs, sizeof(cs), "%016llx", static_cast<unsigned long long>(t.checksum));
    table.row({std::to_string(t.threads), Table::num(t.wall_ms, 1),
               Table::num(timings.front().wall_ms / t.wall_ms, 2), cs});
  }
  table.print();
  std::printf("\nresults bit-identical across thread counts: %s\n",
              deterministic ? "yes" : "NO — DETERMINISM VIOLATION");
  if (with_metrics)
    std::printf("metrics snapshots byte-identical across thread counts: %s\n",
                metrics_deterministic ? "yes" : "NO — DETERMINISM VIOLATION");
  std::printf("\n");

  auto kernels = time_kernels(reps);

  // ---- stream_relay: the streaming runtime pushing a full relay session.
  const StreamSetup setup = make_stream_setup(stream_cli.duration_s());
  StreamRun stream_run;
  const double stream_ms = time_best_ms(
      [&] {
        stream_run = run_stream_once(setup, stream_cli.block_size(),
                                     stream_cli.backpressure(), stream_cli.threads());
      },
      reps);
  kernels.push_back(
      {"stream_relay", stream_ms, static_cast<std::size_t>(stream_run.blocks)});

  // ---- stream_relay_throughput: the same session under the pipeline
  // scheduler (pinned per-core chains over SPSC rings). threads = 0 lets
  // the chain count follow the host, so this row scales on multi-core
  // machines; the checksum cross-check below still holds it to the
  // reference output bit for bit.
  StreamExec texec;
  texec.throughput = true;
  texec.batch_size = stream_cli.batch_size();
  texec.pin_cores = stream_cli.pin_cores();
  StreamRun stream_tp_run;
  const double stream_tp_ms = time_best_ms(
      [&] {
        stream_tp_run = run_stream_once(setup, stream_cli.block_size(),
                                        stream_cli.backpressure(), /*threads=*/0, texec);
      },
      reps);
  kernels.push_back({"stream_relay_throughput", stream_tp_ms,
                     static_cast<std::size_t>(stream_tp_run.blocks)});

  // ---- stream_relay_f32 (v5): the same session on the float32 kernel
  // family (precision=f32 on the channels and the relay pipeline). Unlike
  // the thread-scaling rows, this speedup comes from SIMD width, so it is
  // meaningful even on a single visible CPU — no skipped_reason branch.
  const StreamSetup setup_f32 =
      make_stream_setup(stream_cli.duration_s(), ff::Precision::kF32);
  StreamRun stream_f32_run;
  const double stream_f32_ms = time_best_ms(
      [&] {
        stream_f32_run = run_stream_once(setup_f32, stream_cli.block_size(),
                                         stream_cli.backpressure(), stream_cli.threads());
      },
      reps);
  kernels.push_back({"stream_relay_f32", stream_f32_ms,
                     static_cast<std::size_t>(stream_f32_run.blocks)});

  // The runtime's invariance contract: the output stream is bit-identical
  // for any block size and thread count (tests/stream_test.cpp proves it on
  // synthetic graphs; this re-proves it on the full relay session). The
  // variant grid deliberately spans degenerate (1), odd (7), and large
  // (4096) block sizes against 1/2/4 threads — the shapes where a
  // vectorized block path could diverge from the per-sample reference if
  // it re-associated anything.
  bool stream_deterministic = stream_tp_run.checksum == stream_run.checksum &&
                              stream_tp_run.samples == stream_run.samples;
  const struct { std::size_t block_size, threads; } variants[] = {
      {1, 1},    {7, 2},    {64, 1},   {64, 4},
      {4096, 1}, {4096, 2}, {4096, 4}, {stream_cli.block_size(), 4}};
  for (const auto& v : variants) {
    const StreamRun r =
        run_stream_once(setup, v.block_size, stream_cli.backpressure(), v.threads);
    if (r.checksum != stream_run.checksum || r.samples != stream_run.samples)
      stream_deterministic = false;
  }
  // Throughput-mode grid: partitionings and batch sizes that exercise ring
  // traffic (2 and 4 chains) and batching (1 and 16 blocks per transfer).
  const struct { std::size_t chains, batch; } tp_variants[] = {
      {1, 1}, {2, 4}, {4, 16}};
  for (const auto& v : tp_variants) {
    StreamExec e;
    e.throughput = true;
    e.batch_size = v.batch;
    const StreamRun r = run_stream_once(setup, stream_cli.block_size(),
                                        stream_cli.backpressure(), v.chains, e);
    if (r.checksum != stream_run.checksum || r.samples != stream_run.samples)
      stream_deterministic = false;
  }

  // The f32 family holds the same invariance contract around its OWN
  // checksum (a different constant from the f64 one — the families never
  // mix): reference rounds across block sizes and threads, plus the
  // pipeline scheduler, must all reproduce stream_f32_run bit for bit.
  bool stream_f32_deterministic = stream_f32_run.samples == stream_run.samples;
  const struct { std::size_t block_size, threads; } f32_variants[] = {
      {1, 1}, {7, 2}, {4096, 4}};
  for (const auto& v : f32_variants) {
    const StreamRun r = run_stream_once(setup_f32, v.block_size,
                                        stream_cli.backpressure(), v.threads);
    if (r.checksum != stream_f32_run.checksum || r.samples != stream_f32_run.samples)
      stream_f32_deterministic = false;
  }
  {
    StreamExec e;
    e.throughput = true;
    e.batch_size = 4;
    const StreamRun r = run_stream_once(setup_f32, stream_cli.block_size(),
                                        stream_cli.backpressure(), /*threads=*/2, e);
    if (r.checksum != stream_f32_run.checksum || r.samples != stream_f32_run.samples)
      stream_f32_deterministic = false;
  }

  // The pipeline speedup claim is only testable when the host actually has
  // cores to pipeline across; on a 1-CPU container the chains time-slice
  // one core and the honest answer is "skipped", not a meaningless ratio.
  const unsigned hw_concurrency = std::thread::hardware_concurrency();
  const double tp_speedup = stream_ms / stream_tp_ms;
  std::string tp_skipped_reason;
  if (hw_concurrency <= 1)
    tp_skipped_reason =
        "single visible CPU: pipeline chains time-slice one core, "
        "speedup-vs-reference not meaningful";

  Table ktable({"kernel", "batch", "best-of (ms)", "us/op"});
  for (const auto& k : kernels)
    ktable.row({k.name, std::to_string(k.items), Table::num(k.wall_ms, 3),
                Table::num(1e3 * k.wall_ms / static_cast<double>(k.items), 3)});
  ktable.print();

  const double stream_msps = static_cast<double>(stream_run.samples) / (1e3 * stream_ms);
  std::snprintf(cs, sizeof(cs), "%016llx",
                static_cast<unsigned long long>(stream_run.checksum));
  std::printf("\nstream_relay: %llu samples in %llu blocks of %zu "
              "(%.1f Msamples/s, %.2f us/block, checksum %s)\n",
              static_cast<unsigned long long>(stream_run.samples),
              static_cast<unsigned long long>(stream_run.blocks),
              stream_cli.block_size(), stream_msps,
              1e3 * stream_ms / static_cast<double>(stream_run.blocks), cs);
  const double stream_tp_msps =
      static_cast<double>(stream_tp_run.samples) / (1e3 * stream_tp_ms);
  std::printf("stream_relay_throughput: %.1f Msamples/s at batch %zu "
              "(auto chains, %u visible CPUs)",
              stream_tp_msps, stream_cli.batch_size(), hw_concurrency);
  if (tp_skipped_reason.empty())
    std::printf(", %.2fx vs reference\n", tp_speedup);
  else
    std::printf(", speedup check skipped: %s\n", tp_skipped_reason.c_str());
  std::printf("stream output bit-identical across block sizes, threads, "
              "modes and batch sizes: %s\n",
              stream_deterministic ? "yes" : "NO — DETERMINISM VIOLATION");
  const double stream_f32_msps =
      static_cast<double>(stream_f32_run.samples) / (1e3 * stream_f32_ms);
  const double f32_speedup = stream_f32_ms > 0.0 ? stream_ms / stream_f32_ms : 0.0;
  std::snprintf(cs, sizeof(cs), "%016llx",
                static_cast<unsigned long long>(stream_f32_run.checksum));
  std::printf("stream_relay_f32: %.1f Msamples/s (%.2fx vs f64, own checksum %s)\n",
              stream_f32_msps, f32_speedup, cs);
  std::printf("f32 stream output bit-identical across block sizes, threads "
              "and modes: %s\n",
              stream_f32_deterministic ? "yes" : "NO — DETERMINISM VIOLATION");

  // ---- city: the sharded many-relay simulation. Like the pipeline row,
  // the parallel-speedup claim needs real cores; the checksum/JSONL
  // determinism grid is meaningful (and enforced) everywhere.
  MetricsRegistry city_registry;
  const CityBench city = run_city_bench(city_grid, city_clients, &city_registry);
  const double city_speedup = city.wall_ms > 0.0 ? city.wall_ms_1t / city.wall_ms : 0.0;
  std::string city_skipped_reason;
  if (hw_concurrency <= 1)
    city_skipped_reason =
        "single visible CPU: shard workers time-slice one core, "
        "speedup-vs-1t not meaningful";
  const auto city_cdf = city_registry.histogram_cdf("city.session_mbps.ff", 10);

  std::snprintf(cs, sizeof(cs), "%016llx",
                static_cast<unsigned long long>(city.run.checksum));
  std::printf("\ncity %zux%zu (%zu sessions): %.0f client-sessions/sec, "
              "FF %.2fx HD mesh city-wide (%.2fx median session), checksum %s",
              city_grid, city_grid, city.run.summary.sessions,
              city.sessions_per_sec, city.run.summary.gain_vs_hd_mesh,
              city.run.summary.median_gain_vs_hd_mesh, cs);
  if (city_skipped_reason.empty())
    std::printf(", %.2fx vs 1T\n", city_speedup);
  else
    std::printf(", speedup check skipped: %s\n", city_skipped_reason.c_str());
  std::printf("city results and JSONL bytes bit-identical across shard and "
              "thread counts: %s\n",
              city.deterministic ? "yes" : "NO — DETERMINISM VIOLATION");

  JsonWriter json;
  json.begin_object();
  json.key("schema").value(std::string("ff-bench-runtime-v5"));
  json.key("clients_per_plan").value(clients);
  json.key("hardware_threads").value(hw_threads);
  // v3: the CPUs actually visible to this process — perf rows that depend
  // on real parallelism carry a "skipped_reason" instead of a ratio when
  // this is 1 (single-core CI container).
  json.key("hardware_concurrency").value(static_cast<std::size_t>(hw_concurrency));
  // v2: the build/runtime configuration a perf number is meaningless
  // without — which kernel ISA dispatched, whether SIMD paths were compiled
  // (FF_SIMD), whether the build targeted the host CPU (FF_NATIVE).
  json.key("isa").value(std::string(dsp::kernels::isa_name()));
  json.key("ff_simd").value(dsp::kernels::simd_compiled());
#ifdef FF_NATIVE_ENABLED
  json.key("ff_native").value(true);
#else
  json.key("ff_native").value(false);
#endif
  json.key("deterministic").value(deterministic);
  json.key("metrics_enabled").value(with_metrics);
  json.key("metrics_deterministic").value(metrics_deterministic);
  json.key("experiment");
  json.begin_array();
  for (const auto& t : timings) {
    std::snprintf(cs, sizeof(cs), "%016llx", static_cast<unsigned long long>(t.checksum));
    json.begin_object();
    json.key("threads").value(t.threads);
    json.key("wall_ms").value(t.wall_ms);
    json.key("speedup_vs_1t").value(timings.front().wall_ms / t.wall_ms);
    json.key("checksum").value(std::string(cs));
    json.end_object();
  }
  json.end_array();
  json.key("kernels");
  json.begin_array();
  for (const auto& k : kernels) {
    json.begin_object();
    json.key("name").value(k.name);
    json.key("batch").value(k.items);
    json.key("best_of_ms").value(k.wall_ms);
    json.key("us_per_op").value(1e3 * k.wall_ms / static_cast<double>(k.items));
    json.end_object();
  }
  json.end_array();
  json.key("stream");
  json.begin_object();
  json.key("block_size").value(stream_cli.block_size());
  json.key("backpressure_blocks").value(stream_cli.backpressure());
  json.key("threads").value(stream_cli.threads());
  json.key("duration_s").value(stream_cli.duration_s());
  json.key("samples").value(static_cast<std::size_t>(stream_run.samples));
  json.key("blocks").value(static_cast<std::size_t>(stream_run.blocks));
  json.key("best_of_ms").value(stream_ms);
  json.key("samples_per_sec").value(1e6 * stream_msps);
  json.key("us_per_block").value(1e3 * stream_ms / static_cast<double>(stream_run.blocks));
  std::snprintf(cs, sizeof(cs), "%016llx",
                static_cast<unsigned long long>(stream_run.checksum));
  json.key("checksum").value(std::string(cs));
  json.key("deterministic").value(stream_deterministic);
  json.key("mode").value(std::string("reference"));
  json.end_object();
  // v3: the same session under the pipeline scheduler. `chains` = 0 means
  // auto (one per visible core); speedup_vs_reference is replaced by
  // skipped_reason on hosts where it cannot mean anything.
  json.key("stream_throughput");
  json.begin_object();
  json.key("mode").value(std::string("throughput"));
  json.key("block_size").value(stream_cli.block_size());
  json.key("backpressure_blocks").value(stream_cli.backpressure());
  json.key("batch_size").value(stream_cli.batch_size());
  json.key("pinned").value(stream_cli.pin_cores());
  json.key("chains").value(std::size_t{0});
  json.key("samples").value(static_cast<std::size_t>(stream_tp_run.samples));
  json.key("blocks").value(static_cast<std::size_t>(stream_tp_run.blocks));
  json.key("best_of_ms").value(stream_tp_ms);
  json.key("samples_per_sec").value(1e6 * stream_tp_msps);
  json.key("us_per_block").value(1e3 * stream_tp_ms /
                                 static_cast<double>(stream_tp_run.blocks));
  std::snprintf(cs, sizeof(cs), "%016llx",
                static_cast<unsigned long long>(stream_tp_run.checksum));
  json.key("checksum").value(std::string(cs));
  if (tp_skipped_reason.empty())
    json.key("speedup_vs_reference").value(tp_speedup);
  else
    json.key("skipped_reason").value(tp_skipped_reason);
  json.end_object();
  // v5: the same session on the float32 kernel family. Its checksum is a
  // different constant from stream.checksum by design (own pinned family,
  // docs/PERFORMANCE.md); speedup_f32_vs_f64 is a SIMD-width gain and is
  // therefore reported unconditionally — it does not need spare cores.
  json.key("stream_f32");
  json.begin_object();
  json.key("mode").value(std::string("reference"));
  json.key("precision").value(std::string("f32"));
  json.key("block_size").value(stream_cli.block_size());
  json.key("backpressure_blocks").value(stream_cli.backpressure());
  json.key("threads").value(stream_cli.threads());
  json.key("samples").value(static_cast<std::size_t>(stream_f32_run.samples));
  json.key("blocks").value(static_cast<std::size_t>(stream_f32_run.blocks));
  json.key("best_of_ms").value(stream_f32_ms);
  json.key("samples_per_sec").value(1e6 * stream_f32_msps);
  json.key("us_per_block").value(1e3 * stream_f32_ms /
                                 static_cast<double>(stream_f32_run.blocks));
  std::snprintf(cs, sizeof(cs), "%016llx",
                static_cast<unsigned long long>(stream_f32_run.checksum));
  json.key("checksum").value(std::string(cs));
  json.key("deterministic").value(stream_f32_deterministic);
  json.key("speedup_f32_vs_f64").value(f32_speedup);
  json.end_object();
  // v4: the sharded many-relay city simulation — deployment-scale
  // throughput under inter-site interference, the whole-city FF session
  // CDF, and an honest parallel-speedup field following the same
  // speedup-XOR-skipped_reason rule as stream_throughput.
  json.key("city");
  json.begin_object();
  json.key("grid").value(city_grid);
  json.key("clients_per_site").value(city_clients);
  json.key("sites").value(city.run.summary.sites);
  json.key("sessions").value(city.run.summary.sessions);
  json.key("shards").value(city.run.summary.shards);
  json.key("wall_ms_1t").value(city.wall_ms_1t);
  json.key("wall_ms").value(city.wall_ms);
  json.key("client_sessions_per_sec").value(city.sessions_per_sec);
  json.key("ff_total_mbps").value(city.run.summary.ff_total_mbps);
  json.key("hd_mesh_total_mbps").value(city.run.summary.hd_mesh_total_mbps);
  json.key("direct_total_mbps").value(city.run.summary.direct_total_mbps);
  json.key("gain_vs_hd_mesh").value(city.run.summary.gain_vs_hd_mesh);
  json.key("median_gain_vs_hd_mesh").value(city.run.summary.median_gain_vs_hd_mesh);
  json.key("throughput_cdf_mbps");
  json.begin_array();
  for (const auto& pt : city_cdf) {
    json.begin_object();
    json.key("p").value(pt.prob);
    json.key("mbps").value(pt.value);
    json.end_object();
  }
  json.end_array();
  std::snprintf(cs, sizeof(cs), "%016llx",
                static_cast<unsigned long long>(city.run.checksum));
  json.key("checksum").value(std::string(cs));
  json.key("deterministic").value(city.deterministic);
  if (city_skipped_reason.empty())
    json.key("speedup_vs_1t").value(city_speedup);
  else
    json.key("skipped_reason").value(city_skipped_reason);
  json.end_object();
  json.end_object();

  if (!json.write_file(out_path)) {
    std::cerr << "failed to write " << out_path << "\n";
    return 1;
  }
  std::printf("\nwrote %s\n", out_path.c_str());
  if (with_metrics) {
    std::ofstream mf(metrics_path, std::ios::binary);
    if (mf) mf << timings.front().metrics_full;
    if (!mf) {
      std::cerr << "failed to write " << metrics_path << "\n";
      return 1;
    }
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return deterministic && metrics_deterministic && stream_deterministic &&
                 stream_f32_deterministic && city.deterministic
             ? 0
             : 1;
}
