// Google-benchmark micro kernels: throughput of the sample-level primitives
// on the relay's critical path (how many Msps each stage sustains in this
// software model).
#include <benchmark/benchmark.h>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/kernels/workspace.hpp"
#include "dsp/noise.hpp"
#include "fullduplex/digital_canceller.hpp"
#include "fullduplex/stack.hpp"
#include "phy/fec.hpp"
#include "phy/frame.hpp"
#include "relay/cnf_design.hpp"
#include "relay/pipeline.hpp"
#include "stream/elements.hpp"
#include "stream/graph.hpp"
#include "stream/params.hpp"
#include "stream/ring.hpp"
#include "stream/scheduler.hpp"

namespace {

using namespace ff;

void BM_Fft64(benchmark::State& state) {
  const dsp::FftPlan plan(64);
  Rng rng(1);
  CVec x(64);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Fft64);

// ---- kernel layer: dispatched (SIMD when compiled+supported) vs the scalar
// reference on the same buffers, and the mixed-radix FFT vs the seed radix-2
// path. The scalar/SIMD pairs are bitwise-equal by contract (kernels.hpp);
// these rows measure what that contract costs/buys.

void BM_CmulScalar(benchmark::State& state) {
  Rng rng(11);
  dsp::kernels::AlignedCVec a(4096), b(4096), out(4096);
  for (auto& v : a) v = rng.cgaussian();
  for (auto& v : b) v = rng.cgaussian();
  for (auto _ : state) {
    dsp::kernels::scalar::cmul(a, b, out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_CmulScalar);

void BM_CmulSimd(benchmark::State& state) {
  Rng rng(11);
  dsp::kernels::AlignedCVec a(4096), b(4096), out(4096);
  for (auto& v : a) v = rng.cgaussian();
  for (auto& v : b) v = rng.cgaussian();
  for (auto _ : state) {
    dsp::kernels::cmul(a, b, out);  // dispatched: scalar when FF_SIMD=OFF
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_CmulSimd);

// ---- float32 family: the same dispatched kernels with float lanes (double
// the SIMD width per register, kernels.hpp "float32 family"). Each row pairs
// with its f64 twin above/below so the width gain is a row-to-row ratio:
// BM_CmulSimd <-> BM_CmulF32Simd, BM_Fft64 <-> BM_Fft64F32,
// BM_FirCoreF64 <-> BM_FirCoreF32, BM_CancellerApplyF64 <-> ...F32.

void BM_CmulF32Simd(benchmark::State& state) {
  Rng rng(11);
  dsp::kernels::AlignedCVec wide(4096);
  for (auto& v : wide) v = rng.cgaussian();
  dsp::kernels::AlignedCVec32 a(4096), b(4096), out(4096);
  dsp::kernels::narrow(wide, a);
  for (auto& v : wide) v = rng.cgaussian();
  dsp::kernels::narrow(wide, b);
  for (auto _ : state) {
    dsp::kernels::cmul(a, b, out);  // dispatched: scalar when FF_SIMD=OFF
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(a.size()));
}
BENCHMARK(BM_CmulF32Simd);

void BM_Fft64F32(benchmark::State& state) {
  const dsp::FftPlan<float> plan(64);
  Rng rng(1);
  CVec wide(64);
  for (auto& v : wide) v = rng.cgaussian();
  dsp::kernels::AlignedCVec32 x(64);
  dsp::kernels::narrow(wide, x);
  for (auto _ : state) {
    plan.forward(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Fft64F32);

void BM_Fft64Radix2(benchmark::State& state) {
  const dsp::FftPlan plan(64);
  Rng rng(1);
  CVec x(64);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    plan.forward_radix2(x);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Fft64Radix2);

void BM_Fft64Radix4(benchmark::State& state) {
  const dsp::FftPlan plan(64);
  Rng rng(1);
  CVec x(64);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    plan.forward(x);  // Stockham mixed-radix (radix-4 dominant for n=64)
    benchmark::DoNotOptimize(x.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 64);
}
BENCHMARK(BM_Fft64Radix4);

void BM_ForwardPipelinePush(benchmark::State& state) {
  relay::PipelineConfig cfg;
  cfg.cfo_hz = 30e3;
  cfg.prefilter = CVec(4, Complex{0.5, 0.1});
  cfg.gain_db = 80.0;
  relay::ForwardPipeline pipe(cfg);
  Rng rng(2);
  const Complex s = rng.cgaussian();
  for (auto _ : state) benchmark::DoNotOptimize(pipe.push(s));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ForwardPipelinePush);

void BM_CausalCanceller120Taps(benchmark::State& state) {
  Rng rng(3);
  CVec taps(120);
  for (auto& t : taps) t = rng.cgaussian(1e-6);
  dsp::FirFilter fir(taps);
  const Complex s = rng.cgaussian();
  for (auto _ : state) benchmark::DoNotOptimize(fir.push(s));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_CausalCanceller120Taps);

// ---- block processing: allocating process() vs in-place process_into().
// Same arithmetic either way; the delta is the per-block allocation, which
// is what the streaming runtime's block path avoids.

void BM_FirProcessBlock(benchmark::State& state) {
  Rng rng(9);
  CVec taps(32);
  for (auto& t : taps) t = rng.cgaussian(1e-3);
  dsp::FirFilter fir(taps);
  CVec x(256);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    CVec y = fir.process(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_FirProcessBlock);

void BM_FirProcessIntoBlock(benchmark::State& state) {
  Rng rng(9);
  CVec taps(32);
  for (auto& t : taps) t = rng.cgaussian(1e-3);
  dsp::FirFilter fir(taps);
  CVec x(256);
  CVec y(256);  // preallocated once: the streaming runtime's block path
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    fir.process_into(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_FirProcessIntoBlock);

// The raw dense-FIR cores, f64 vs f32, on the canceller's 120-tap shape: one
// 256-sample block over a pre-staged extended input, no delay-line
// bookkeeping — pure kernels::axpy throughput in each precision.

void BM_FirCoreF64(benchmark::State& state) {
  Rng rng(9);
  const std::size_t taps = 120, n = 256;
  dsp::kernels::AlignedCVec h(taps), ext(taps - 1 + n), y(n);
  for (auto& v : h) v = rng.cgaussian(1e-3);
  for (auto& v : ext) v = rng.cgaussian();
  for (auto _ : state) {
    dsp::fir_core(h, ext.data(), y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FirCoreF64);

void BM_FirCoreF32(benchmark::State& state) {
  Rng rng(9);
  const std::size_t taps = 120, n = 256;
  dsp::kernels::AlignedCVec hw(taps), extw(taps - 1 + n);
  for (auto& v : hw) v = rng.cgaussian(1e-3);
  for (auto& v : extw) v = rng.cgaussian();
  dsp::kernels::AlignedCVec32 h(taps), ext(taps - 1 + n), y(n);
  dsp::kernels::narrow(hw, h);
  dsp::kernels::narrow(extw, ext);
  for (auto _ : state) {
    dsp::fir_core(h, ext.data(), y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FirCoreF32);

void BM_PipelineProcessBlock(benchmark::State& state) {
  relay::PipelineConfig cfg;
  cfg.cfo_hz = 30e3;
  cfg.prefilter = CVec(4, Complex{0.5, 0.1});
  cfg.gain_db = 80.0;
  relay::ForwardPipeline pipe(cfg);
  Rng rng(10);
  CVec x(256);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    CVec y = pipe.process(x);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_PipelineProcessBlock);

void BM_PipelineProcessIntoBlock(benchmark::State& state) {
  relay::PipelineConfig cfg;
  cfg.cfo_hz = 30e3;
  cfg.prefilter = CVec(4, Complex{0.5, 0.1});
  cfg.gain_db = 80.0;
  relay::ForwardPipeline pipe(cfg);
  Rng rng(10);
  CVec x(256);
  CVec y(256);
  for (auto& v : x) v = rng.cgaussian();
  for (auto _ : state) {
    pipe.process_into(x, y);
    benchmark::DoNotOptimize(y.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(x.size()));
}
BENCHMARK(BM_PipelineProcessIntoBlock);

// ---- two-stage cancellation apply: the allocating wrapper (one fresh CVec
// per call plus whatever dsp::filter used to allocate) vs the workspace form
// the streaming canceller runs on (apply_into: zero steady-state heap
// allocations). Same arithmetic, bit-identical outputs.

struct CancellerScenario {
  fd::CancellationStack stack;
  CVec tx, rx;
};

const CancellerScenario& canceller_scenario() {
  static const CancellerScenario* s = [] {
    auto* sc = new CancellerScenario;
    Rng rng(12);
    const std::size_t n = 6000;
    const double fs = 80e6;
    const CVec source = dsp::awgn_dbm(rng, n, -70.0);
    sc->tx.assign(n, Complex{});
    for (std::size_t i = 2; i < n; ++i) sc->tx[i] = source[i - 2];
    dsp::set_mean_power(sc->tx, power_from_db(20.0));
    const CVec probe = fd::inject_probe(rng, sc->tx, 30.0);
    const auto si = fd::make_si_channel(rng);
    const CVec si_fir = fd::si_loop_fir(si, fs);
    const CVec si_only = dsp::filter(si_fir, sc->tx);
    const CVec thermal = dsp::awgn_dbm(rng, n, -90.0);
    sc->rx.resize(n);
    for (std::size_t i = 0; i < n; ++i)
      sc->rx[i] = source[i] + si_only[i] + thermal[i];
    fd::StackConfig cfg;
    cfg.sample_rate_hz = fs;
    sc->stack = fd::CancellationStack(cfg);
    sc->stack.tune(sc->tx, probe, sc->rx);
    return sc;
  }();
  return *s;
}

void BM_CancellerApplyAlloc(benchmark::State& state) {
  const CancellerScenario& s = canceller_scenario();
  for (auto _ : state) {
    CVec out = s.stack.apply(s.tx, s.rx);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.rx.size()));
}
BENCHMARK(BM_CancellerApplyAlloc);

void BM_CancellerApplyWorkspace(benchmark::State& state) {
  const CancellerScenario& s = canceller_scenario();
  CVec out(s.rx.size());
  dsp::kernels::Workspace ws;
  for (auto _ : state) {
    s.stack.apply_into(s.tx, s.rx, out, ws);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(s.rx.size()));
}
BENCHMARK(BM_CancellerApplyWorkspace);

// The streaming canceller's per-block apply (analog FIR + digital FIR +
// two subtractions) in each precision — the element the precision=f32 graph
// key switches. Same taps, same blocks; the delta is float lanes plus the
// narrow/widen conversions at the block edges.

void BM_CancellerApplyF64(benchmark::State& state) {
  Rng rng(13);
  CVec analog(24), digital(120);
  for (auto& t : analog) t = rng.cgaussian(1e-4);
  for (auto& t : digital) t = rng.cgaussian(1e-6);
  stream::CancellerElement canc("c", analog, digital);
  CVec rx(256), tx(256);
  for (auto& v : rx) v = rng.cgaussian();
  for (auto& v : tx) v = rng.cgaussian();
  for (auto _ : state) {
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
    benchmark::DoNotOptimize(rx.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rx.size()));
}
BENCHMARK(BM_CancellerApplyF64);

void BM_CancellerApplyF32(benchmark::State& state) {
  Rng rng(13);
  CVec analog(24), digital(120);
  for (auto& t : analog) t = rng.cgaussian(1e-4);
  for (auto& t : digital) t = rng.cgaussian(1e-6);
  stream::CancellerElement canc("c", analog, digital);
  stream::Params p;
  p.set("analog", stream::format_cvec(analog));
  p.set("digital", stream::format_cvec(digital));
  p.set("precision", "f32");
  canc.configure(p);
  CVec rx(256), tx(256);
  for (auto& v : rx) v = rng.cgaussian();
  for (auto& v : tx) v = rng.cgaussian();
  for (auto _ : state) {
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
    benchmark::DoNotOptimize(rx.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(rx.size()));
}
BENCHMARK(BM_CancellerApplyF32);

void BM_DigitalCancellerTraining(benchmark::State& state) {
  Rng rng(4);
  const std::size_t n = 8000;
  CVec tx(n), rx(n);
  for (auto& v : tx) v = rng.cgaussian();
  for (std::size_t i = 0; i < n; ++i) rx[i] = Complex{0.01, 0.0} * tx[i];
  for (auto _ : state) {
    benchmark::DoNotOptimize(fd::estimate_fir_ls_fast(tx, rx, 120));
  }
}
BENCHMARK(BM_DigitalCancellerTraining);

void BM_CnfSisoDesign(benchmark::State& state) {
  Rng rng(5);
  CVec h_sd(56), h_sr(56), h_rd(56);
  for (std::size_t i = 0; i < 56; ++i) {
    h_sd[i] = rng.cgaussian();
    h_sr[i] = rng.cgaussian();
    h_rd[i] = rng.cgaussian();
  }
  for (auto _ : state)
    benchmark::DoNotOptimize(relay::cnf_siso_ideal(h_sd, h_sr, h_rd));
}
BENCHMARK(BM_CnfSisoDesign);

void BM_CnfMimoDesignPerSubcarrier(benchmark::State& state) {
  Rng rng(6);
  linalg::Matrix h_sd(2, 2), h_sr(2, 2), h_rd(2, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      h_sd(i, j) = rng.cgaussian();
      h_sr(i, j) = rng.cgaussian();
      h_rd(i, j) = rng.cgaussian();
    }
  std::vector<double> warm;
  for (auto _ : state) {
    const auto r = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0,
                                          warm.empty() ? nullptr : &warm);
    warm = r.params;
    benchmark::DoNotOptimize(warm.data());
  }
}
BENCHMARK(BM_CnfMimoDesignPerSubcarrier);

void BM_ViterbiDecode(benchmark::State& state) {
  Rng rng(7);
  std::vector<std::uint8_t> msg(200);
  for (auto& b : msg) b = rng.bernoulli(0.5) ? 1 : 0;
  const auto coded = phy::convolutional_encode(msg, phy::CodeRate::R1_2);
  std::vector<double> llrs(coded.size());
  for (std::size_t i = 0; i < coded.size(); ++i) llrs[i] = coded[i] ? -4.0 : 4.0;
  for (auto _ : state)
    benchmark::DoNotOptimize(phy::viterbi_decode(llrs, phy::CodeRate::R1_2, msg.size()));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(msg.size()));
}
BENCHMARK(BM_ViterbiDecode);

// ---- streaming runtime: the per-transfer cost of the pipeline scheduler's
// SPSC ring, and the fixed per-round overhead of a whole scheduler pass
// (graph walk, virtual dispatch, channel bookkeeping) with near-zero
// payload work — the constant the throughput mode's batching amortizes.

void BM_RingPushPop(benchmark::State& state) {
  // Single-threaded ping-pong: one push + one pop per iteration, measuring
  // the ring's index arithmetic and acquire/release pair without
  // cross-core traffic (the steady-state fast path, since each side's
  // cached opposite index makes most operations core-local anyway).
  stream::SpscRing<std::uint64_t> ring(256);
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push(std::uint64_t{v}));
    std::uint64_t out = 0;
    benchmark::DoNotOptimize(ring.try_pop(out));
    ++v;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RingPushPop);

void BM_RingPushPopBatch16(benchmark::State& state) {
  // The batched transfer the scheduler actually uses: 16 items under one
  // tail publication, 16 under one head publication.
  stream::SpscRing<std::uint64_t> ring(256);
  std::uint64_t v = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.try_push_batch(16, [&] { return v++; }));
    std::uint64_t sum = 0;
    benchmark::DoNotOptimize(ring.try_pop_batch(16, [&](std::uint64_t&& x) { sum += x; }));
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 16);
}
BENCHMARK(BM_RingPushPopBatch16);

void BM_SchedulerRoundOverhead(benchmark::State& state) {
  // A 4-element pass-through graph (source -> queue -> queue -> sink) with
  // 1-sample blocks: the work per block is nothing, so the measured time is
  // the runtime's own overhead per scheduled block — the number the
  // work_batch/ring-batch path exists to shrink.
  const std::size_t n_blocks = 256;
  const CVec data(n_blocks, Complex{1.0, 0.0});
  for (auto _ : state) {
    stream::Graph g;
    auto* src = g.emplace<stream::VectorSource>("src", data, 1);
    auto* q1 = g.emplace<stream::Queue>("q1");
    auto* q2 = g.emplace<stream::Queue>("q2");
    auto* sink = g.emplace<stream::NullSink>("sink");
    g.connect(*src, 0, *q1, 0);
    g.connect(*q1, 0, *q2, 0);
    g.connect(*q2, 0, *sink, 0);
    stream::Scheduler(g).run();
    benchmark::DoNotOptimize(sink->samples_seen());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n_blocks));
}
BENCHMARK(BM_SchedulerRoundOverhead);

void BM_PacketDecode(benchmark::State& state) {
  const phy::OfdmParams params;
  const phy::Transmitter tx(params);
  const phy::Receiver rx(params);
  Rng rng(8);
  std::vector<std::uint8_t> payload(400);
  for (auto& b : payload) b = rng.bernoulli(0.5) ? 1 : 0;
  const CVec pkt = tx.modulate(payload, {.mcs_index = 4});
  for (auto _ : state) benchmark::DoNotOptimize(rx.receive(pkt));
}
BENCHMARK(BM_PacketDecode);

}  // namespace

BENCHMARK_MAIN();
