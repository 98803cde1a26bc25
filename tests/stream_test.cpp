// Streaming element-graph runtime tests: graph validation, the block-size
// and chain-count invariance contract (streaming output must be
// bit-identical to the batch path no matter how the stream is blocked or
// scheduled), and bounded-queue backpressure (saturation degrades
// throughput, never correctness).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "channel/cfo.hpp"
#include "channel/floorplan.hpp"
#include "channel/multipath.hpp"
#include "common/rng.hpp"
#include "common/telemetry.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/noise.hpp"
#include "dsp/resample.hpp"
#include "dsp/sequence.hpp"
#include "eval/faults.hpp"
#include "eval/testbed.hpp"
#include "eval/timedomain.hpp"
#include "fullduplex/si_channel.hpp"
#include "fullduplex/stack.hpp"
#include "fullduplex/tuner.hpp"
#include "phy/frame.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/scheduler.hpp"

namespace ff {
namespace {

using stream::Block;
using stream::Graph;
using stream::Scheduler;
using stream::SchedulerConfig;

constexpr std::size_t kBlockSizes[] = {1, 7, 64, 4096};
constexpr std::size_t kChainCounts[] = {1, 2, 4};  // throughput mode

CVec random_signal(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  CVec x(n);
  for (auto& s : x) s = rng.cgaussian();
  return x;
}

std::uint64_t counter_value(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& m : snap.counters)
    if (m.name == name) return m.count;
  return 0;
}

double gauge_value(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& m : snap.gauges)
    if (m.name == name) return m.value;
  return -1.0;
}

std::uint64_t timer_count(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& m : snap.timers)
    if (m.name == name) return m.count;
  return 0;
}

/// Run `data` through a single transform element at the given block size
/// and return the collected output.
template <typename MakeElement>
CVec run_single_transform(const CVec& data, std::size_t block_size, MakeElement make) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", data, block_size);
  auto* xf = g.add(make());
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *xf, 0);
  g.connect(*xf, 0, *sink, 0);
  Scheduler(g).run();
  return sink->take();
}

// ------------------------------------------------------------- validation

TEST(StreamGraph, RejectsEmptyGraph) {
  Graph g;
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StreamGraph, RejectsUnconnectedPorts) {
  Graph g;
  g.emplace<stream::VectorSource>("src", CVec{Complex{1.0, 0.0}}, 4);
  EXPECT_THROW(g.validate(), std::logic_error);  // src output dangling
}

TEST(StreamGraph, RejectsDuplicateNames) {
  Graph g;
  auto* a = g.emplace<stream::VectorSource>("x", CVec{Complex{1.0, 0.0}}, 4);
  auto* b = g.emplace<stream::AccumulatorSink>("x");
  g.connect(*a, 0, *b, 0);
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StreamGraph, RejectsSelfLoopAndDoubleConnect) {
  Graph g;
  auto* q = g.emplace<stream::Queue>("q");
  EXPECT_THROW(g.connect(*q, 0, *q, 0), std::logic_error);
  auto* src = g.emplace<stream::VectorSource>("src", CVec{Complex{1.0, 0.0}}, 4);
  g.connect(*src, 0, *q, 0);
  auto* q2 = g.emplace<stream::Queue>("q2");
  EXPECT_THROW(g.connect(*src, 0, *q2, 0), std::logic_error);  // port reuse
}

TEST(StreamGraph, RejectsCycles) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", CVec{Complex{1.0, 0.0}}, 4);
  auto* add = g.emplace<stream::Add2>("add");
  auto* tee = g.emplace<stream::Tee>("tee", 2);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *add, 0);
  g.connect(*add, 0, *tee, 0);
  g.connect(*tee, 0, *sink, 0);
  g.connect(*tee, 1, *add, 1);  // feedback: add -> tee -> add
  EXPECT_THROW(g.validate(), std::logic_error);
}

TEST(StreamGraph, LevelsFollowLongestPath) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(64, 9), 16);
  auto* tee = g.emplace<stream::Tee>("tee", 2);
  auto* q = g.emplace<stream::Queue>("q");
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *tee, 0);
  g.connect(*tee, 0, *add, 0, /*capacity=*/16);
  g.connect(*tee, 1, *q, 0);
  g.connect(*q, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);
  g.validate();
  // src=0, tee=1, q=2, add=3 (longest path through q), sink=4.
  std::vector<std::string> order;
  for (const stream::Element* e : g.topo_order()) order.push_back(e->name());
  EXPECT_EQ(order, (std::vector<std::string>{"src", "tee", "q", "add", "sink"}));
}

TEST(StreamCombine, RejectsMisalignedStreams) {
  Graph g;
  auto* a = g.emplace<stream::VectorSource>("a", random_signal(32, 1), 8);
  auto* b = g.emplace<stream::VectorSource>("b", random_signal(32, 2), 16);
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*a, 0, *add, 0);
  g.connect(*b, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);
  EXPECT_THROW(Scheduler(g).run(), std::logic_error);
}

// ------------------------------------------- block-size invariance (batch)

TEST(StreamInvariance, FirMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(5000, 42);
  const CVec taps = dsp::design_lowpass(31, 0.2);
  const CVec batch = dsp::filter(taps, x);  // zero initial conditions
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      return std::make_unique<stream::FirElement>("fir", taps);
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

TEST(StreamInvariance, CfoMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(3000, 7);
  const double fs = 20e6, cfo = 31.4e3;
  const CVec batch = channel::apply_cfo(x, cfo, fs);
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      return std::make_unique<stream::CfoElement>("cfo", cfo, fs);
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

relay::PipelineConfig test_pipeline_config() {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 20e6;
  cfg.adc_dac_delay_samples = 2;
  cfg.cfo_hz = 12.5e3;
  cfg.prefilter = dsp::design_lowpass(9, 0.3);
  cfg.analog_rotation = Complex{0.8, -0.6};
  cfg.gain_db = 20.0;
  cfg.tx_filter = dsp::design_lowpass(5, 0.25);
  return cfg;
}

TEST(StreamInvariance, PipelineMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(4000, 11);
  relay::ForwardPipeline reference(test_pipeline_config());
  const CVec batch = reference.process(x);
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      return std::make_unique<stream::PipelineElement>("relay", test_pipeline_config());
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

TEST(StreamInvariance, FaultScheduleMatchesBatchAtEveryBlockSize) {
  const CVec x = random_signal(2000, 5);
  eval::FaultConfig fc;
  fc.sample_drop_rate = 0.01;
  fc.sample_corrupt_rate = 0.003;
  fc.seed = 99;
  eval::FaultInjector reference(fc);
  const CVec batch = reference.apply_copy(x);
  for (const std::size_t bs : kBlockSizes) {
    const CVec out = run_single_transform(x, bs, [&] {
      return std::make_unique<stream::FaultElement>("faults", fc);
    });
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

stream::ChannelElementConfig drifting_channel_config() {
  stream::ChannelElementConfig cc;
  cc.channel = channel::MultipathChannel(
      {channel::PathTap{100e-9, Complex{0.5, 0.1}},
       channel::PathTap{250e-9, Complex{-0.2, 0.3}}},
      2.45e9);
  cc.sample_rate_hz = 20e6;
  cc.sinc_half_width = 8;
  cc.noise_power = 1e-6;
  cc.coherence_time_s = 1e-4;  // fast drift so retunes matter in-test
  cc.retune_interval_samples = 512;
  cc.seed = 1234;
  return cc;
}

TEST(StreamInvariance, DriftingChannelIsBlockSizeInvariant) {
  const CVec x = random_signal(3000, 21);
  // Reference: the same element run at the largest block size.
  const CVec reference = run_single_transform(x, 4096, [&] {
    return std::make_unique<stream::ChannelElement>("chan", drifting_channel_config());
  });
  for (const std::size_t bs : kBlockSizes) {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", x, bs);
    auto* chan = g.emplace<stream::ChannelElement>("chan", drifting_channel_config());
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*src, 0, *chan, 0);
    g.connect(*chan, 0, *sink, 0);
    Scheduler(g).run();
    EXPECT_EQ(chan->retunes(), (x.size() - 1) / 512);
    const CVec out = sink->take();
    ASSERT_EQ(out.size(), reference.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], reference[i]) << "block_size=" << bs << " sample " << i;
  }
}

TEST(StreamInvariance, CancellerMatchesStackApply) {
  // Classic SI scenario: the relay hears its own transmission through the
  // SI channel; the tuned stack's batch apply() must equal the streaming
  // CancellerElement bit-for-bit (the digital stage is causal).
  Rng rng(77);
  const std::size_t n = 20000;
  const channel::MultipathChannel si = fd::make_si_channel(rng);
  CVec tx = dsp::awgn_dbm(rng, n, 20.0);
  const CVec probe = fd::inject_probe(rng, tx, 30.0);
  const CVec si_fir = fd::si_loop_fir(si, 20e6);
  const CVec si_rx = dsp::filter(si_fir, tx);
  const CVec thermal = dsp::awgn_dbm(rng, n, -90.0);
  CVec rx(n);
  for (std::size_t i = 0; i < n; ++i) rx[i] = si_rx[i] + thermal[i];

  fd::CancellationStack stack;
  stack.tune(tx, probe, rx);
  const CVec batch = stack.apply(tx, rx);

  for (const std::size_t bs : {std::size_t{64}, std::size_t{997}}) {
    Graph g;
    auto* rx_src = g.emplace<stream::VectorSource>("rx", rx, bs);
    auto* tx_src = g.emplace<stream::VectorSource>("tx", tx, bs);
    auto* canc = g.emplace<stream::CancellerElement>("canceller", stack);
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*rx_src, 0, *canc, 0);
    g.connect(*tx_src, 0, *canc, 1);
    g.connect(*canc, 0, *sink, 0);
    Scheduler(g).run();
    const CVec out = sink->take();
    ASSERT_EQ(out.size(), batch.size());
    for (std::size_t i = 0; i < out.size(); ++i)
      ASSERT_EQ(out[i], batch[i]) << "block_size=" << bs << " sample " << i;
  }
}

TEST(StreamGate, OpensOnSignatureAndIsBlockSizeInvariant) {
  const phy::OfdmParams params;
  const std::size_t prefix = phy::signature_prefix_len(params);
  phy::Transmitter tx(params);
  phy::TxOptions txo;
  txo.signature_client = 3;
  std::vector<std::uint8_t> payload(64, 1);
  const CVec pkt = tx.modulate(payload, txo);

  const std::size_t window = 2 * prefix;
  const auto make_detector = [&] {
    ident::PnSignatureDetector det(0.6);
    det.register_client(3, prefix / 2);
    det.register_client(9, prefix / 2);
    return det;
  };

  CVec reference;
  for (const std::size_t bs : kBlockSizes) {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", pkt, bs);
    auto* gate = g.emplace<stream::GateElement>("gate", make_detector(), window);
    auto* sink = g.emplace<stream::AccumulatorSink>("sink");
    g.connect(*src, 0, *gate, 0);
    g.connect(*gate, 0, *sink, 0);
    Scheduler(g).run();

    ASSERT_TRUE(gate->decided());
    ASSERT_TRUE(gate->decision().has_value());
    EXPECT_EQ(gate->decision()->client, 3u);
    const CVec out = sink->take();
    ASSERT_EQ(out.size(), pkt.size());
    // Muted through the decision window, passing afterwards.
    for (std::size_t i = 0; i < window; ++i) ASSERT_EQ(out[i], Complex{});
    for (std::size_t i = window; i < out.size(); ++i) ASSERT_EQ(out[i], pkt[i]);
    if (reference.empty()) reference = out;
    EXPECT_EQ(out, reference) << "block_size=" << bs;
  }

  // No registered signature in the stream: the gate stays shut.
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(window + 500, 3), 64);
  auto* gate = g.emplace<stream::GateElement>("gate", make_detector(), window);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *gate, 0);
  g.connect(*gate, 0, *sink, 0);
  Scheduler(g).run();
  ASSERT_TRUE(gate->decided());
  EXPECT_FALSE(gate->decision().has_value());
  for (const Complex s : sink->samples()) ASSERT_EQ(s, Complex{});
}

// ------------------------------------------- composite graph, chains x bs

struct CompositeResult {
  CVec out;
  std::uint64_t rounds = 0;
  std::uint64_t sink_samples = 0;
  double depth_peak = -1.0;
  std::uint64_t retunes = 0;  // chan_rd's drift steps: element-state probe
  std::uint64_t relay_blocks = 0;    // stream.relay.blocks
  std::uint64_t relay_timed = 0;     // observations of stream.relay.block_us
};

/// The reference schedule of run_composite(64, 1): its round count and the
/// peak depth of add's relay-side input.
constexpr std::uint64_t kCompositeRounds64 = 5;
constexpr double kCompositeDepthPeak64 = 8.0;

/// Scheduler selection for run_composite (reference rounds by default).
struct CompositeExec {
  bool throughput = false;
  std::size_t batch = 1;
  bool pin = false;
};

/// The streaming relay testbench: packets reach the destination through a
/// direct path and through a relay branch (source->relay channel, forward
/// pipeline, relay->destination drifting channel), superposed at the sink.
CompositeResult run_composite(std::size_t block_size, std::size_t threads,
                              const CompositeExec& exec = {}) {
  stream::PacketSourceConfig pc;
  pc.n_packets = 2;
  pc.payload_bits = 128;
  pc.gap_samples = 200;
  pc.seed = 2026;

  stream::ChannelElementConfig direct;
  direct.channel = channel::MultipathChannel(
      {channel::PathTap{150e-9, Complex{0.3, -0.2}}}, 2.45e9);
  direct.sample_rate_hz = 20e6;
  direct.sinc_half_width = 8;
  direct.noise_power = 1e-8;
  direct.seed = 5;

  stream::ChannelElementConfig sr;
  sr.channel = channel::MultipathChannel(
      {channel::PathTap{80e-9, Complex{0.6, 0.1}}}, 2.45e9);
  sr.sample_rate_hz = 20e6;
  sr.sinc_half_width = 8;
  sr.seed = 6;

  stream::ChannelElementConfig rd = drifting_channel_config();
  rd.seed = 7;

  MetricsRegistry metrics;
  Graph g;
  auto* src = g.emplace<stream::PacketSource>("src", pc, block_size);
  auto* tee = g.emplace<stream::Tee>("tee", 2);
  auto* chan_sd = g.emplace<stream::ChannelElement>("chan_sd", direct);
  auto* chan_sr = g.emplace<stream::ChannelElement>("chan_sr", sr);
  auto* relay = g.emplace<stream::PipelineElement>("relay", test_pipeline_config());
  auto* chan_rd = g.emplace<stream::ChannelElement>("chan_rd", rd);
  auto* q = g.emplace<stream::Queue>("q");
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");

  g.connect(*src, 0, *tee, 0);
  // The direct branch is 1 element long, the relay branch 3: the Queue (and
  // a deeper direct-side channel) levels them so Add2 sees aligned streams
  // without deadlocking on default capacities.
  g.connect(*tee, 0, *chan_sd, 0, /*capacity=*/8);
  g.connect(*chan_sd, 0, *q, 0, /*capacity=*/8);
  g.connect(*q, 0, *add, 0, /*capacity=*/8);
  g.connect(*tee, 1, *chan_sr, 0);
  g.connect(*chan_sr, 0, *relay, 0);
  g.connect(*relay, 0, *chan_rd, 0);
  g.connect(*chan_rd, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);

  SchedulerConfig sc;
  sc.threads = threads;
  sc.metrics = &metrics;
  if (exec.throughput) {
    sc.mode = stream::SchedulerMode::kThroughput;
    sc.batch_size = exec.batch;
    sc.pin_cores = exec.pin;
  }
  CompositeResult r;
  r.rounds = Scheduler(g, sc).run();
  r.out = sink->take();
  r.retunes = chan_rd->retunes();
  const auto snap = metrics.snapshot();
  r.sink_samples = counter_value(snap, "stream.sink.samples");
  r.depth_peak = gauge_value(snap, "stream.add.in1.depth_peak");
  r.relay_blocks = counter_value(snap, "stream.relay.blocks");
  r.relay_timed = timer_count(snap, "stream.relay.block_us");
  return r;
}

TEST(StreamInvariance, CompositeGraphIsThreadAndBlockSizeInvariant) {
  const CompositeResult reference = run_composite(64, 1);
  ASSERT_GT(reference.out.size(), 0u);
  EXPECT_EQ(reference.sink_samples, reference.out.size());
  // The reference schedule is a function of the graph alone: these are the
  // round count and queue peak of the 64-sample run.
  EXPECT_EQ(reference.rounds, kCompositeRounds64);
  EXPECT_EQ(reference.depth_peak, kCompositeDepthPeak64);

  for (const std::size_t bs : kBlockSizes) {
    // Reference mode (one chain), then the same run cut into 2 and 4
    // throughput chains.
    for (const std::size_t chains : {std::size_t{0}, std::size_t{2}, std::size_t{4}}) {
      CompositeExec exec;
      exec.throughput = chains > 0;
      const CompositeResult r = run_composite(bs, chains > 0 ? chains : 1, exec);
      ASSERT_EQ(r.out.size(), reference.out.size()) << "bs=" << bs << " chains=" << chains;
      for (std::size_t i = 0; i < r.out.size(); ++i)
        ASSERT_EQ(r.out[i], reference.out[i])
            << "bs=" << bs << " chains=" << chains << " sample " << i;
      if (bs == 64 && chains == 0) {
        EXPECT_EQ(r.rounds, reference.rounds);
        EXPECT_EQ(r.depth_peak, reference.depth_peak);
      }
      EXPECT_EQ(r.sink_samples, r.out.size());
    }
  }
}

// ------------------------------------- throughput mode (pipeline scheduler)

TEST(StreamThroughput, MatchesReferenceAtAnyPartitioningAndBatch) {
  // The tentpole equivalence claim: the pipeline scheduler must reproduce
  // the reference output — and the trajectory of element state (drift
  // retunes happen at exact sample positions) — at every combination of
  // chain count and batch size, including oversubscribed ones (the 9
  // composite elements cut into 4 chains on however few cores CI has).
  const CompositeResult reference = run_composite(64, 1);
  ASSERT_GT(reference.out.size(), 0u);

  for (const std::size_t chains : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      CompositeExec exec;
      exec.throughput = true;
      exec.batch = batch;
      const CompositeResult r = run_composite(64, chains, exec);
      ASSERT_EQ(r.out.size(), reference.out.size())
          << "chains=" << chains << " batch=" << batch;
      for (std::size_t i = 0; i < r.out.size(); ++i)
        ASSERT_EQ(r.out[i], reference.out[i])
            << "chains=" << chains << " batch=" << batch << " sample " << i;
      EXPECT_EQ(r.retunes, reference.retunes)
          << "chains=" << chains << " batch=" << batch;
      EXPECT_EQ(r.sink_samples, reference.sink_samples)
          << "chains=" << chains << " batch=" << batch;
    }
  }

  // Pinning is a placement hint, never a semantics change.
  CompositeExec pinned;
  pinned.throughput = true;
  pinned.batch = 4;
  pinned.pin = true;
  const CompositeResult r = run_composite(64, 3, pinned);
  EXPECT_EQ(r.out, reference.out);
}

TEST(StreamThroughput, BatchedWorkIsBlockSizeInvariant) {
  // Ring batching must be invisible in the samples at every block size,
  // not just the composite's 64.
  const CompositeResult reference = run_composite(64, 1);
  for (const std::size_t bs : kBlockSizes) {
    CompositeExec exec;
    exec.throughput = true;
    exec.batch = 8;
    const CompositeResult r = run_composite(bs, 2, exec);
    ASSERT_EQ(r.out.size(), reference.out.size()) << "bs=" << bs;
    for (std::size_t i = 0; i < r.out.size(); ++i)
      ASSERT_EQ(r.out[i], reference.out[i]) << "bs=" << bs << " sample " << i;
  }
}

TEST(StreamThroughput, BlockTimerObservesEveryBlockAtAnyBatch) {
  // stream.<e>.block_us is a per-block timer in both modes
  // (docs/OBSERVABILITY.md): batch_size sizes ring transfers only, so even
  // a chain that finds 8 blocks queued times each one.
  for (const std::size_t chains : {std::size_t{1}, std::size_t{2}}) {
    CompositeExec exec;
    exec.throughput = true;
    exec.batch = 8;
    const CompositeResult r = run_composite(64, chains, exec);
    ASSERT_GT(r.relay_blocks, 0u);
    EXPECT_EQ(r.relay_timed, r.relay_blocks) << "chains=" << chains;
  }
}

TEST(StreamThroughput, ChainCountClampsToGraphSize) {
  // More threads than elements: the scheduler must clamp, not crash or
  // spin up idle workers that never retire.
  const CVec x = random_signal(1000, 31);
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", x, 64);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *sink, 0);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 16;  // graph has 2 elements
  sc.batch_size = 4;
  Scheduler(g, sc).run();
  EXPECT_EQ(sink->samples(), x);
}

TEST(StreamThroughput, BackpressureStillLossless) {
  // Tiny channels, a throttled sink, and ring bridges in between: the
  // pipeline must stay lossless and ordered under saturation.
  const CVec x = random_signal(10000, 13);
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", x, 16);
  auto* q = g.emplace<stream::Queue>("q");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink", /*max_blocks_per_work=*/1);
  g.connect(*src, 0, *q, 0, /*capacity=*/2);
  g.connect(*q, 0, *sink, 0, /*capacity=*/2);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 3;  // one element per chain: both channels become bridges
  sc.batch_size = 4;
  Scheduler(g, sc).run();
  EXPECT_EQ(sink->samples(), x);
}

TEST(StreamThroughput, PropagatesElementErrorsAcrossChains) {
  // A worker thread hitting an element error (misaligned combine) must
  // surface it as the scheduler's own exception, not a hang or a crash.
  Graph g;
  auto* a = g.emplace<stream::VectorSource>("a", random_signal(32, 1), 8);
  auto* b = g.emplace<stream::VectorSource>("b", random_signal(32, 2), 16);
  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*a, 0, *add, 0);
  g.connect(*b, 0, *add, 1);
  g.connect(*add, 0, *sink, 0);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 4;
  EXPECT_THROW(Scheduler(g, sc).run(), std::logic_error);
}

namespace {
/// An element that accepts wiring but never consumes, closes, or emits:
/// the pipeline analog of a wedged downstream stage.
class StuckElement : public stream::Element {
 public:
  explicit StuckElement(std::string name) : Element(std::move(name), 1, 1) {}
  const char* class_name() const override { return "Stuck"; }
  bool work() override { return false; }
};
}  // namespace

TEST(StreamThroughput, WatchdogAbortsStuckGraph) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(1000, 3), 8);
  auto* stuck = g.emplace<StuckElement>("stuck");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *stuck, 0, /*capacity=*/4);
  g.connect(*stuck, 0, *sink, 0, /*capacity=*/4);
  SchedulerConfig sc;
  sc.mode = stream::SchedulerMode::kThroughput;
  sc.threads = 3;
  sc.watchdog_ms = 150.0;  // fail fast in-test; default is 10 s
  try {
    Scheduler(g, sc).run();
    FAIL() << "stuck graph must trip the watchdog";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no progress"), std::string::npos) << what;
    EXPECT_NE(what.find("ring"), std::string::npos) << what;  // occupancy report
  }
}

// --------------------------------------- pinned relay-session checksum

/// FNV-1a over raw bytes — the same fold bench_runtime uses for its stream
/// checksums, so the constant below is directly comparable to
/// BENCH_runtime.json.
std::uint64_t fnv1a_bytes(const void* bytes, std::size_t len) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// The bench_runtime stream_relay session (bench/bench_runtime.cpp,
/// make_stream_setup + run_stream_once at the default knobs: 5 ms session,
/// 256-sample blocks, capacity-8 channels). Reproduced here so the output
/// checksum is pinned by a test, not just reported by a bench.
struct RelaySession {
  eval::TimeDomainLink link;
  relay::PipelineConfig pipeline;
  stream::PacketSourceConfig packets;
  double fs_hi = 0.0;
  Precision precision = Precision::kF64;
  bool with_noise = true;  // false: noise-free twin for accuracy tracking
};

RelaySession make_relay_session(Precision precision = Precision::kF64) {
  constexpr std::size_t kOversample = 4;  // the evaluator's converter rate
  const eval::TestbedConfig tb;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  Rng rng(20140817);

  RelaySession s;
  s.link = eval::build_td_link(placement, {6.0, 4.0}, tb, rng);
  s.fs_hi = tb.ofdm.sample_rate_hz * static_cast<double>(kOversample);
  s.pipeline = eval::make_ff_pipeline(s.link, tb.ofdm, /*extra_latency_s=*/0.0);
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
  const auto want = static_cast<std::size_t>(5e-3 * s.fs_hi);
  s.packets.n_packets = std::max<std::size_t>(1, want / stride);
  return s;
}

CVec run_relay_session_samples(const RelaySession& s, const SchedulerConfig& sc_in,
                               std::size_t block_size = 256) {
  constexpr std::size_t kCap = 8;
  Graph g;
  auto* src = g.emplace<stream::PacketSource>("src", s.packets, block_size);
  auto* cfo = g.emplace<stream::CfoElement>("src_cfo", s.link.source_cfo_hz, s.fs_hi,
                                            s.precision);
  auto* tee = g.emplace<stream::Tee>("tee", 2);

  stream::ChannelElementConfig sd;
  sd.channel = s.link.sd;
  sd.sample_rate_hz = s.fs_hi;
  if (s.with_noise) sd.noise_power = power_from_db(s.link.dest_noise_dbm) * 4.0;
  sd.seed = s.packets.seed ^ 0xD5;
  sd.precision = s.precision;
  auto* chan_sd = g.emplace<stream::ChannelElement>("chan_sd", sd);
  auto* q = g.emplace<stream::Queue>("q");

  stream::ChannelElementConfig sr;
  sr.channel = s.link.sr;
  sr.sample_rate_hz = s.fs_hi;
  if (s.with_noise) sr.noise_power = power_from_db(s.link.relay_noise_dbm) * 4.0;
  sr.seed = s.packets.seed ^ 0x5F;
  sr.precision = s.precision;
  auto* chan_sr = g.emplace<stream::ChannelElement>("chan_sr", sr);
  auto* relay = g.emplace<stream::PipelineElement>("relay", s.pipeline);

  stream::ChannelElementConfig rd;
  rd.channel = s.link.rd;
  rd.sample_rate_hz = s.fs_hi;
  rd.seed = s.packets.seed ^ 0xFD;
  rd.precision = s.precision;
  auto* chan_rd = g.emplace<stream::ChannelElement>("chan_rd", rd);

  auto* add = g.emplace<stream::Add2>("add");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");

  g.connect(*src, 0, *cfo, 0, kCap);
  g.connect(*cfo, 0, *tee, 0, kCap);
  g.connect(*tee, 0, *chan_sd, 0, kCap);
  g.connect(*chan_sd, 0, *q, 0, kCap);
  g.connect(*q, 0, *add, 0, kCap);
  g.connect(*tee, 1, *chan_sr, 0, kCap);
  g.connect(*chan_sr, 0, *relay, 0, kCap);
  g.connect(*relay, 0, *chan_rd, 0, kCap);
  g.connect(*chan_rd, 0, *add, 1, kCap);
  g.connect(*add, 0, *sink, 0, kCap);

  Scheduler(g, sc_in).run();
  CVec out = sink->take();
  EXPECT_EQ(out.size(), 399360u);  // 1560 blocks of 256 (BENCH_runtime.json)
  return out;
}

std::uint64_t run_relay_session(const RelaySession& s, const SchedulerConfig& sc_in,
                                std::size_t block_size = 256) {
  const CVec out = run_relay_session_samples(s, sc_in, block_size);
  return fnv1a_bytes(out.data(), out.size() * sizeof(Complex));
}

TEST(StreamThroughput, RelaySessionChecksumPinnedAcrossModes) {
  // The exact constant BENCH_runtime.json reports for the stream_relay
  // kernel. If this moves, the streaming runtime changed the physics — at
  // ANY chain partitioning and batch size, in either mode.
  constexpr std::uint64_t kChecksum = 0x6A5A4D77AD3C20FFULL;
  const RelaySession session = make_relay_session();

  SchedulerConfig reference;
  EXPECT_EQ(run_relay_session(session, reference), kChecksum);

  for (const std::size_t chains : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const std::size_t batch : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
      SchedulerConfig sc;
      sc.mode = stream::SchedulerMode::kThroughput;
      sc.threads = chains;
      sc.batch_size = batch;
      EXPECT_EQ(run_relay_session(session, sc), kChecksum)
          << "chains=" << chains << " batch=" << batch;
    }
  }
}

// ------------------------------------------- float32 relay-session family

// The f32 relay session has its OWN pinned checksum (docs/PERFORMANCE.md,
// "The float32 family"): a different constant from the f64 session's
// 6a5a4d77ad3c20ff, but held to the same invariance contract — one value no
// matter how the stream is blocked, how many chains run it, which
// scheduler executes it, or (via the release-nosimd preset re-running this
// binary) which ISA the kernels dispatched to.
TEST(StreamF32, RelaySessionChecksumPinnedAcrossBlocksThreadsAndModes) {
  constexpr std::uint64_t kChecksumF32 = 0x4C5091284BF23263ULL;
  const RelaySession session = make_relay_session(Precision::kF32);

  // Every block size runs in both modes; the throughput chain count cycles
  // through {1,2,4} so each appears across the sweep.
  std::size_t rotate = 0;
  for (const std::size_t block : kBlockSizes) {
    EXPECT_EQ(run_relay_session(session, SchedulerConfig{}, block), kChecksumF32)
        << "block=" << block << " mode=reference";
    SchedulerConfig tp;
    tp.mode = stream::SchedulerMode::kThroughput;
    tp.threads = kChainCounts[rotate++ % 3];
    tp.batch_size = 4;
    EXPECT_EQ(run_relay_session(session, tp, block), kChecksumF32)
        << "block=" << block << " chains=" << tp.threads << " mode=throughput";
  }
  // Full chain sweep at the bench block size.
  EXPECT_EQ(run_relay_session(session, SchedulerConfig{}), kChecksumF32) << "ref";
  for (const std::size_t chains : kChainCounts) {
    SchedulerConfig tp;
    tp.mode = stream::SchedulerMode::kThroughput;
    tp.threads = chains;
    EXPECT_EQ(run_relay_session(session, tp), kChecksumF32) << "tp chains=" << chains;
  }
}

// Accuracy of the fast path, proven against the f64 reference session with
// the channel noise DISABLED: a float32 session draws its noise from
// Rng::cgaussian32 (the float32 family's own, cheaper sequence — same
// statistics, different realization), so the noisy twins are different
// simulations by design and only the noise-free pair isolates the
// arithmetic: the same link and packets, with float rounding inside the
// CFO rotators, channel FIRs and the relay pipeline as the only
// difference. The bound is generous against the observed error but still
// pins the path to "conversion noise only" — any algorithmic divergence
// between the twins would blow through it by orders of magnitude.
TEST(StreamF32, RelaySessionTracksF64ReferenceAndDecodes) {
  const SchedulerConfig sc;
  RelaySession ref_session = make_relay_session();
  ref_session.with_noise = false;
  RelaySession f32_session = make_relay_session(Precision::kF32);
  f32_session.with_noise = false;
  const CVec ref = run_relay_session_samples(ref_session, sc);
  const CVec got = run_relay_session_samples(f32_session, sc);
  ASSERT_EQ(ref.size(), got.size());
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    num += std::norm(got[i] - ref[i]);
    den += std::norm(ref[i]);
  }
  ASSERT_GT(den, 0.0);
  const double rel_mse = num / den;
  EXPECT_LT(rel_mse, 1e-10) << "rel MSE " << rel_mse;
  // As an EVM: at least 100 dB below the signal, far under the session's
  // own channel noise floor.
  EXPECT_LT(10.0 * std::log10(rel_mse), -100.0);

  // The receiver sees the same session: detection, CRC verdict and SNR must
  // match the f64 reference. (This bench-shaped session superposes the
  // direct and relay paths unaligned, so neither precision decodes cleanly
  // here — the aligned example session's crc=OK, in both precisions, is
  // enforced by the streaming-smoke CTest script.)
  const phy::Receiver rx(make_relay_session().packets.params);
  const auto got_rx = rx.receive(dsp::downsample(got, /*factor=*/4));
  const auto ref_rx = rx.receive(dsp::downsample(ref, /*factor=*/4));
  ASSERT_EQ(got_rx.has_value(), ref_rx.has_value());
  if (ref_rx) {
    EXPECT_EQ(got_rx->crc_ok, ref_rx->crc_ok);
    EXPECT_EQ(got_rx->mcs_index, ref_rx->mcs_index);
    EXPECT_NEAR(got_rx->snr_db, ref_rx->snr_db, 0.05);
  }
}

// The number the paper cares about is residual self-interference after
// cancellation. Build a leak channel, hand the canceller estimates that are
// 0.1% detuned (so the residual floor is set by the estimation error at
// ~-60 dB, like a real tuner, not by arithmetic), and require the f32 path
// to land within 0.01 dB of the f64 residual: switching precision must not
// cost measurable cancellation depth.
TEST(StreamF32, CancellationResidualDbMatchesF64) {
  Rng rng(23);
  CVec analog_true(8), digital_true(48);
  for (auto& t : analog_true) t = rng.cgaussian(1e-2);
  for (auto& t : digital_true) t = rng.cgaussian(1e-4);
  CVec analog_est = analog_true, digital_est = digital_true;
  for (auto& t : analog_est) t *= 1.001;
  for (auto& t : digital_est) t *= 1.001;

  const std::size_t n = 4096;
  CVec tx(n);
  for (auto& v : tx) v = rng.cgaussian();
  CVec rx(n);
  for (std::size_t i = 0; i < n; ++i) {
    Complex acc{};
    for (std::size_t k = 0; k < analog_true.size() && k <= i; ++k)
      acc += analog_true[k] * tx[i - k];
    for (std::size_t k = 0; k < digital_true.size() && k <= i; ++k)
      acc += digital_true[k] * tx[i - k];
    rx[i] = acc;
  }
  double in_power = 0.0;
  for (const auto& v : rx) in_power += std::norm(v);
  ASSERT_GT(in_power, 0.0);

  const auto residual_db = [&](Precision precision) {
    stream::CancellerElement canc("c", analog_est, digital_est);
    if (precision == Precision::kF32) {
      stream::Params p;
      p.set("analog", stream::format_cvec(analog_est));
      p.set("digital", stream::format_cvec(digital_est));
      p.set("precision", "f32");
      canc.configure(p);
    }
    CVec out = rx;
    canc.cancel_into(CMutSpan{out.data(), out.size()},
                     CSpan{tx.data(), tx.size()});
    double res = 0.0;
    for (const auto& v : out) res += std::norm(v);
    return 10.0 * std::log10(res / in_power);
  };

  const double f64_db = residual_db(Precision::kF64);
  const double f32_db = residual_db(Precision::kF32);
  EXPECT_LT(f64_db, -55.0) << "canceller did not cancel";
  EXPECT_NEAR(f32_db, f64_db, 0.01)
      << "f32 residual " << f32_db << " dB vs f64 " << f64_db << " dB";
}

// ------------------------------------------------------------ backpressure

TEST(StreamBackpressure, BoundedQueueNeverDropsUnderSaturation) {
  const CVec x = random_signal(10000, 13);
  MetricsRegistry metrics;
  Graph g;
  // Tiny capacities + a sink throttled to 1 block per opportunity: the
  // graph saturates immediately and the source spends most rounds stalled.
  auto* src = g.emplace<stream::VectorSource>("src", x, 16);
  auto* q = g.emplace<stream::Queue>("q");
  auto* sink = g.emplace<stream::AccumulatorSink>("sink", /*max_blocks_per_work=*/1);
  g.connect(*src, 0, *q, 0, /*capacity=*/2);
  g.connect(*q, 0, *sink, 0, /*capacity=*/2);

  SchedulerConfig sc;
  sc.metrics = &metrics;
  Scheduler(g, sc).run();

  // Nothing dropped, nothing reordered, nothing duplicated.
  EXPECT_EQ(sink->samples(), x);
  // The producer genuinely hit backpressure...
  EXPECT_GT(src->stalls(), 0u);
  // ...and the bounded queues never exceeded their capacity.
  const auto snap = metrics.snapshot();
  EXPECT_LE(gauge_value(snap, "stream.q.in0.depth_peak"), 2.0);
  EXPECT_LE(gauge_value(snap, "stream.sink.in0.depth_peak"), 2.0);
  EXPECT_EQ(counter_value(snap, "stream.sink.samples"), x.size());
  EXPECT_GT(counter_value(snap, "stream.src.stalls"), 0u);
}

TEST(StreamBackpressure, ThrottledSinkStillDrainsEverythingMultithreaded) {
  // Reference mode (chains = 0 below), then 1, 2 and 4 throughput chains.
  const CVec x = random_signal(5000, 17);
  for (const std::size_t chains : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                   std::size_t{4}}) {
    Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", x, 8);
    auto* tee = g.emplace<stream::Tee>("tee", 2);
    auto* a = g.emplace<stream::AccumulatorSink>("a", 1);
    auto* b = g.emplace<stream::AccumulatorSink>("b", 2);
    g.connect(*src, 0, *tee, 0, /*capacity=*/2);
    g.connect(*tee, 0, *a, 0, /*capacity=*/2);
    g.connect(*tee, 1, *b, 0, /*capacity=*/2);
    SchedulerConfig sc;
    if (chains > 0) {
      sc.mode = stream::SchedulerMode::kThroughput;
      sc.threads = chains;
    }
    Scheduler(g, sc).run();
    EXPECT_EQ(a->samples(), x) << "chains=" << chains;
    EXPECT_EQ(b->samples(), x) << "chains=" << chains;
  }
}

TEST(StreamScheduler, ReferenceModeRejectsMoreThanOneThread) {
  // Reference mode is one chain on the calling thread; more threads are
  // throughput-mode chains, and the error says so.
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(64, 3), 8);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *sink, 0);
  SchedulerConfig sc;
  sc.threads = 4;
  try {
    Scheduler(g, sc).run();
    FAIL() << "reference mode accepted threads = 4";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("mode = throughput"), std::string::npos)
        << e.what();
  }
  EXPECT_TRUE(sink->samples().empty());  // rejected before any block moved
}

TEST(StreamScheduler, MaxRoundsGuardsRunawayGraphs) {
  const CVec x = random_signal(4096, 19);
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", x, 1);  // 4096 rounds minimum
  auto* sink = g.emplace<stream::AccumulatorSink>("sink", 1);
  g.connect(*src, 0, *sink, 0, 2);
  SchedulerConfig sc;
  sc.max_rounds = 10;
  EXPECT_THROW(Scheduler(g, sc).run(), std::logic_error);
}

TEST(StreamRuntime, BlockFlagsMarkStreamEnds) {
  Graph g;
  auto* src = g.emplace<stream::VectorSource>("src", random_signal(10, 23), 4);
  auto* sink = g.emplace<stream::AccumulatorSink>("sink");
  g.connect(*src, 0, *sink, 0);
  Scheduler(g).run();
  EXPECT_EQ(sink->blocks_seen(), 3u);  // 4 + 4 + 2
  EXPECT_EQ(sink->samples().size(), 10u);
}

}  // namespace
}  // namespace ff
