// relay_serve: an in-process serve::RelayDaemon serving
//   in :: SocketSource -> relay :: Pipeline -> out :: SocketSink
// over Unix sockets, with the relay designed by eval::make_ff_pipeline for
// the seeded link (f64, reference scheduler). The client speaks ff-iq-v1
// through the stream::wire_* functions and sends 256-sample frames of the
// seeded S->R received stream (a fixed pool, cycled).
//
//   Phase A — open loop at a fixed 4 Msps, one frame every 64 us. The
//   sender sleeps until each frame is due (never spins) and every frame's
//   latency is measured from its due time to the receipt of its output
//   frame, so a stall is charged to every frame it delays.
//   Phase B — a saturating closed loop (at most kWindow frames in flight);
//   the delivered rate is the daemon's zero-loss throughput, because it
//   applies backpressure and never drops.
//
// Each phase is one daemon session. Afterwards every output frame is
// compared, by hash, with a replay of relay::ForwardPipeline::process_into
// over the same frames; the replay also gives the relay's per-block time.
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "common/telemetry.hpp"
#include "serve/daemon.hpp"
#include "session.hpp"
#include "stream/graph.hpp"
#include "stream/lang.hpp"
#include "stream/scheduler.hpp"
#include "stream/wire.hpp"

namespace ffbench {

using namespace ff;

namespace {

constexpr double kOpenLoopSps = 4e6;  // about a third of the f64 relay's capacity
constexpr std::uint64_t kWindow = 64;  // phase B frames in flight
constexpr double kRealtimeMsps = 80.0;  // the stream's sample rate

struct Client {
  stream::OwnedFd tx, rx;
};

/// A daemon running on its own thread; stopped and joined on destruction.
class DaemonRunner {
 public:
  DaemonRunner(serve::DaemonConfig cfg) : daemon_(std::move(cfg)) {
    thread_ = std::thread([this] {
      try {
        daemon_.run();
      } catch (const std::exception& e) {
        error_ = e.what();
      }
    });
  }
  ~DaemonRunner() { stop(); }
  DaemonRunner(const DaemonRunner&) = delete;
  DaemonRunner& operator=(const DaemonRunner&) = delete;

  void stop() {
    if (!thread_.joinable()) return;
    daemon_.request_stop();
    thread_.join();
  }
  /// Valid after stop().
  const serve::RelayDaemon& daemon() const { return daemon_; }
  const std::string& error() const { return error_; }

 private:
  serve::RelayDaemon daemon_;
  std::string error_;
  std::thread thread_;  // declared last: it uses the members above
};

Client connect_client(const stream::WireEndpoint& in, const stream::WireEndpoint& outp) {
  Client c;
  c.tx = stream::wire_connect(in, 20.0);
  c.rx = stream::wire_connect(outp, 20.0);
  return c;
}

struct PhaseResult {
  std::uint64_t sent = 0;
  std::vector<std::uint64_t> hashes;  // per received output frame
  std::vector<double> latency_us;     // per received frame (phase A)
  std::vector<double> lag_us;         // per sent frame (phase A)
  std::vector<double> recv_s;  // receipt times relative to the phase start (phase B)
  bool bad_size = false;
  std::string error;
};

/// One phase of load on ONE client thread. Frames go out when they are due
/// (open loop) or while fewer than kWindow are unanswered (closed loop);
/// in between, the thread sleeps in ppoll on the output socket until the
/// next frame is due or output arrives, then drains every ready frame.
/// Keeping the client to one thread leaves the machine's other cores to
/// the daemon: on a shared host each extra busy thread adds preemptions.
/// Every send and receive is recorded as a `wire.send`/`wire.recv` span
/// (request id = frame index) under `phase`.
PhaseResult run_phase(Client& c, const std::vector<CVec>& pool, double seconds, bool open,
                      Tracer& tracer, Tracer::Lane& lane, Tracer::SpanId phase) {
  PhaseResult r;
  const auto period = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(static_cast<double>(kBlock) / kOpenLoopSps));
  const auto n_open = static_cast<std::uint64_t>(seconds * kOpenLoopSps / kBlock);
  if (open) {
    r.lag_us.reserve(n_open);
    r.latency_us.reserve(n_open);
    r.hashes.reserve(n_open);
  }
  // Fine-grained sleeps: without this the kernel may round each 64 us
  // wake-up up by its default 50 us timer slack.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  const int tx = c.tx.get(), rx = c.rx.get();
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  const auto end = t0 + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
  auto due = [&](std::uint64_t k) { return t0 + period * static_cast<std::int64_t>(k); };
  const auto n_send = tracer.name("wire.send");
  const auto n_recv = tracer.name("wire.recv");
  bool eos_sent = false, eos_seen = false, magic_seen = false;
  CVec frame;
  try {
    stream::wire_send_magic(tx);
    while (!eos_seen) {
      // Drain every output frame that is ready. This runs between any two
      // sends: a client blocked in a send while its own output piles up
      // would deadlock against the daemon's blocking socket sink.
      while (!eos_seen && stream::wire_poll_readable(rx, 0)) {
        if (!magic_seen) {
          stream::wire_expect_magic(rx);
          magic_seen = true;
          continue;
        }
        const auto a = Clock::now();
        const stream::WireRecv st = stream::wire_recv_frame(rx, frame, 0);
        const auto b = Clock::now();
        if (st == stream::WireRecv::kTimeout) break;
        if (st != stream::WireRecv::kFrame) {
          eos_seen = true;
          break;
        }
        const std::uint64_t k = r.hashes.size();
        lane.record(n_recv, a, b, static_cast<std::int64_t>(k), phase);
        if (frame.size() != kBlock) r.bad_size = true;
        r.hashes.push_back(hash_samples(CSpan{frame.data(), frame.size()}));
        if (open)
          r.latency_us.push_back(us_between(due(k), b));
        else
          r.recv_s.push_back(seconds_between(t0, b));
      }
      if (eos_seen) break;

      // Send one frame if one may go now.
      const auto now = Clock::now();
      if (!eos_sent && (open ? r.sent == n_open : now >= end)) {
        stream::wire_send_eos(tx);
        eos_sent = true;
      }
      if (!eos_sent && (open ? due(r.sent) <= now : r.sent < r.hashes.size() + kWindow)) {
        if (open) r.lag_us.push_back(us_between(due(r.sent), now));
        const CVec& f = pool[r.sent % pool.size()];
        stream::wire_send_frame(tx, CSpan{f.data(), f.size()});
        lane.record(n_send, now, Clock::now(), static_cast<std::int64_t>(r.sent), phase);
        ++r.sent;
        continue;
      }

      // Sleep until the next frame is due (or the phase ends) or output
      // arrives.
      timespec ts{};
      timespec* timeout = nullptr;
      if (!eos_sent) {
        const auto wake = open ? due(r.sent) : end;
        const auto ns = std::max<std::int64_t>(
            0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - now).count());
        ts.tv_sec = static_cast<time_t>(ns / 1000000000);
        ts.tv_nsec = static_cast<long>(ns % 1000000000);
        timeout = &ts;
      }
      pollfd pfd{rx, POLLIN, 0};
      ::ppoll(&pfd, 1, timeout, nullptr);
    }
  } catch (const std::exception& e) {
    r.error = e.what();
  }
  return r;
}

/// Replay the relay over the frames a phase sent and count output frames
/// that are missing or differ. Returns per-block process_into times (us),
/// each also recorded as a span `name` on `lane`.
std::vector<double> replay_and_check(const relay::PipelineConfig& cfg,
                                     const std::vector<CVec>& pool, const PhaseResult& r,
                                     const char* phase, Outcome& out, Tracer::Lane& lane,
                                     std::uint32_t name) {
  relay::ForwardPipeline fp(cfg);
  std::vector<double> block_us;
  block_us.reserve(r.sent);
  CVec y(kBlock);
  std::uint64_t mismatched = 0;
  for (std::uint64_t k = 0; k < r.sent; ++k) {
    const CVec& f = pool[k % pool.size()];
    const auto t0 = Clock::now();
    fp.process_into(CSpan{f.data(), f.size()}, CMutSpan{y.data(), y.size()});
    const auto t1 = Clock::now();
    block_us.push_back(us_between(t0, t1));
    lane.record(name, t0, t1, static_cast<std::int64_t>(k));
    if (k < r.hashes.size() && r.hashes[k] != hash_samples(CSpan{y.data(), y.size()}))
      ++mismatched;
  }
  const std::uint64_t missing = r.sent > r.hashes.size() ? r.sent - r.hashes.size() : 0;
  out.attempted += r.sent;
  if (mismatched + missing > 0)
    out.fail(mismatched + missing, std::string(phase) + ": " + std::to_string(missing) +
                                       " frames missing, " + std::to_string(mismatched) +
                                       " differ from the ForwardPipeline replay");
  if (r.hashes.size() > r.sent) out.fail(0, std::string(phase) + ": extra output frames");
  if (r.bad_size) out.fail(0, std::string(phase) + ": output frame of the wrong size");
  if (!r.error.empty()) out.fail(0, std::string(phase) + ": " + r.error);
  return block_us;
}

/// Poll the control plane until no session is active: the daemon admits a
/// new session only after it has reaped the previous one.
void wait_idle(int ctl_fd) {
  for (int i = 0; i < 5000; ++i) {
    stream::wire_send_text(ctl_fd, "stats\n");
    std::string line;
    char ch = 0;
    while (::recv(ctl_fd, &ch, 1, 0) == 1 && ch != '\n') line.push_back(ch);
    if (line.find(" active=0") != std::string::npos) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  throw std::runtime_error("daemon did not finish its session within 10 s");
}

double timer_stat(const MetricsSnapshot& snap, const std::string& name) {
  for (const MetricValue& m : snap.timers)
    if (m.name == name) return m.p50;
  return 0.0;
}

}  // namespace

Outcome run_relay_serve(const Options& opt, Tracer& tracer) {
  Outcome out;
  out.context["precision"] = "f64";
  out.context["scheduler"] = "reference";
  out.context["threads"] = "1";
  const bool trace = tracer.enabled();
  const auto wall0 = Clock::now();

  // ---- inputs: the seeded S->R received stream, cut into frames.
  SessionDesign s = session_inputs(opt.seed, 1, Precision::kF64);
  const std::size_t pool_samples = opt.tiny ? (1u << 15) : (1u << 18);
  s.packets.n_packets = pool_samples / s.stride + 1;
  std::vector<CVec> pool;
  {
    stream::Graph g;
    stream::build_graph(g, sr_stream_graph_text(s), "<sr_stream>");
    stream::Scheduler(g).run();
    auto* sink = dynamic_cast<stream::AccumulatorSink*>(g.find("sink"));
    const CVec all = sink->take();
    for (std::size_t i = 0; i + kBlock <= std::min(all.size(), pool_samples); i += kBlock)
      pool.emplace_back(all.begin() + static_cast<std::ptrdiff_t>(i),
                        all.begin() + static_cast<std::ptrdiff_t>(i + kBlock));
  }

  const std::filesystem::path dir =
      std::filesystem::path(opt.run_dir) / ("serve-" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string in_ep = "unix:" + (dir / "in.sock").string();
  const std::string out_ep = "unix:" + (dir / "out.sock").string();
  const std::string ctl_ep = "unix:" + (dir / "ctl.sock").string();
  const auto in = stream::parse_endpoint("in", in_ep);
  const auto outp = stream::parse_endpoint("out", out_ep);

  MetricsRegistry reg;
  auto make_config = [&](const relay::PipelineConfig& p) {
    serve::DaemonConfig cfg;
    cfg.graph_text = "in :: SocketSource(endpoint=" + in_ep + ");\n" +
                     "relay :: Pipeline(" + pipeline_params(p) + ");\n" +
                     "out :: SocketSink(endpoint=" + out_ep + ", listen=true);\n" +
                     "in -> relay -> out;\n";
    cfg.graph_source = "<relay_serve>";
    cfg.control = ctl_ep;
    if (trace) cfg.metrics = &reg;
    cfg.log = [](const std::string&) {};
    return cfg;
  };

  // ---- set-up, several times: relay design, graph text, daemon
  // construction (parse + probe build) and both socket connects. Every
  // repetition but the last is torn down again with an empty session.
  std::vector<double> setup;
  std::unique_ptr<DaemonRunner> runner;
  Client client;
  for (;;) {
    const auto t0 = Clock::now();
    design_relay(s);
    runner = std::make_unique<DaemonRunner>(make_config(s.pipeline));
    client = connect_client(in, outp);
    setup.push_back(seconds_between(t0, Clock::now()));
    if (setup_done(opt, setup)) break;
    stream::wire_send_magic(client.tx.get());
    stream::wire_send_eos(client.tx.get());
    CVec tail;
    stream::wire_expect_magic(client.rx.get());
    while (stream::wire_recv_frame(client.rx.get(), tail, -1) == stream::WireRecv::kFrame) {
    }
    client = Client{};
    runner->stop();
    runner.reset();
  }
  out.e2e["setup_s"] = median(setup);
  const stream::OwnedFd ctl =
      stream::wire_connect(stream::parse_endpoint("control", ctl_ep), 20.0);

  // ---- phase A: open loop; phase B: closed loop; one session each.
  const double seconds_a = 0.6 * opt.seconds, seconds_b = 0.4 * opt.seconds;
  Tracer::Lane& lane = tracer.lane();
  const auto n_phase_a = tracer.name("serve.open_loop");
  const auto n_phase_b = tracer.name("serve.closed_loop");
  const Tracer::SpanId span_a = lane.begin(n_phase_a);
  const PhaseResult a = run_phase(client, pool, seconds_a, /*open=*/true, tracer, lane, span_a);
  lane.end(span_a);
  // Peak RSS after the fixed-work phase: phase B's frame count, and with it
  // the daemon's per-block timer samples, varies with the machine's speed.
  const double rss_mb = peak_rss_mb();
  wait_idle(ctl.get());
  // Session A's metrics are read and cleared, so phase B's start from zero.
  const MetricsSnapshot snap_a = reg.snapshot();
  reg.clear();
  client = connect_client(in, outp);
  const Tracer::SpanId span_b = lane.begin(n_phase_b);
  const PhaseResult b = run_phase(client, pool, seconds_b, /*open=*/false, tracer, lane, span_b);
  lane.end(span_b);
  client = Client{};
  runner->stop();
  if (!runner->error().empty()) out.fail(0, "daemon: " + runner->error());
  const serve::RelayDaemon& daemon = runner->daemon();
  if (daemon.sessions_aborted() != 0 || daemon.admission_rejected() != 0)
    out.fail(0, "daemon aborted " + std::to_string(daemon.sessions_aborted()) +
                    " sessions and refused " +
                    std::to_string(daemon.admission_rejected()) + " connections");

  // ---- correctness: bit-for-bit against the ForwardPipeline replay.
  const auto n_f64 = tracer.name("relay.replay.f64");
  const auto replay_a = replay_and_check(s.pipeline, pool, a, "phase A", out, lane, n_f64);
  const auto replay_b = replay_and_check(s.pipeline, pool, b, "phase B", out, lane, n_f64);
  out.result_checksum = a.hashes.empty() ? 0 : a.hashes.front();

  // Latency: frames due in the first 100 ms are warm-up; the rest are cut
  // into 0.1 s windows (1562 frames, so even p99 has 15 beyond it). Each
  // figure is the better quartile over windows (see kBetterQuartile).
  const auto warm = static_cast<std::size_t>(0.1 * kOpenLoopSps / kBlock);
  const auto win = static_cast<std::size_t>(0.1 * kOpenLoopSps / kBlock);
  out.e2e["latency_p50_us"] = windowed_quantile(a.latency_us, warm, win, 0.50, kBetterQuartile);
  out.e2e["latency_p90_us"] = windowed_quantile(a.latency_us, warm, win, 0.90, kBetterQuartile);
  // Delivered rate: output samples per 0.25 s window after the first
  // 0.1 s, better quartile over the full windows (the whole phase if
  // shorter).
  std::vector<double> rates;
  if (!b.recv_s.empty()) {
    constexpr double kWin = 0.25, kSkip = 0.1;
    std::size_t i = 0;
    while (i < b.recv_s.size() && b.recv_s[i] < kSkip) ++i;
    for (double w0 = kSkip; w0 + kWin <= b.recv_s.back(); w0 += kWin) {
      std::size_t n = 0;
      for (; i < b.recv_s.size() && b.recv_s[i] < w0 + kWin; ++i) ++n;
      rates.push_back(static_cast<double>(n * kBlock) / kWin);
    }
    if (rates.empty())
      rates.push_back(static_cast<double>(b.recv_s.size() * kBlock) / b.recv_s.back());
  }
  out.e2e["throughput_per_s"] = quantile(rates, 1.0 - kBetterQuartile);
  out.e2e["peak_rss_mb"] = rss_mb;
  const std::size_t timed = a.latency_us.size() - std::min(warm, a.latency_us.size() / 2);
  out.counts["latency_samples"] = static_cast<double>(timed);
  out.counts["latency_windows"] = static_cast<double>(std::max<std::size_t>(1, timed / win));
  out.counts["rate_windows"] = static_cast<double>(rates.size());
  out.counts["frames_sent_a"] = static_cast<double>(a.sent);
  out.counts["frames_sent_b"] = static_cast<double>(b.sent);
  out.counts["window_s"] = seconds_between(wall0, Clock::now());

  std::error_code ec;
  std::filesystem::remove_all(dir, ec);

  if (!trace) return out;

  // ---- per-layer numbers.
  // The f32 forward path replayed on the same phase A frames.
  relay::PipelineConfig p32 = s.pipeline;
  p32.precision = Precision::kF32;
  relay::ForwardPipeline fp32(p32);
  const auto n_f32 = tracer.name("relay.replay.f32");
  std::vector<double> f32_us;
  CVec y(kBlock);
  for (std::uint64_t k = 0; k < a.sent; ++k) {
    const CVec& f = pool[k % pool.size()];
    const auto t0 = Clock::now();
    fp32.process_into(CSpan{f.data(), f.size()}, CMutSpan{y.data(), y.size()});
    const auto t1 = Clock::now();
    f32_us.push_back(us_between(t0, t1));
    lane.record(n_f32, t0, t1, static_cast<std::int64_t>(k));
  }

  std::vector<double> relay_all = replay_a;
  relay_all.insert(relay_all.end(), replay_b.begin(), replay_b.end());
  const double f64_p50 = quantile(relay_all, 0.5);
  const double f32_p50 = quantile(f32_us, 0.5);
  out.layer["relay.f64.block_us_p50"] = f64_p50;
  out.layer["relay.f64.block_us_p99"] = quantile(relay_all, 0.99);
  out.layer["relay.f32.block_us_p50"] = f32_p50;
  out.layer["relay.f64.realtime_ratio"] = static_cast<double>(kBlock) / f64_p50 / kRealtimeMsps;
  out.layer["relay.f32.realtime_ratio"] = static_cast<double>(kBlock) / f32_p50 / kRealtimeMsps;
  out.layer["stream.out.block_us_p50"] = timer_stat(snap_a, "stream.out.block_us");
  out.layer["stream.relay.block_us_p50"] = timer_stat(snap_a, "stream.relay.block_us");
  for (const MetricValue& m : snap_a.gauges)
    if (m.name == "stream.relay.in0.depth_peak") out.layer[m.name] = m.value;
  out.layer["stream.in.stalls"] = 0.0;
  for (const MetricValue& m : snap_a.counters)
    if (m.name == "stream.in.stalls") out.layer[m.name] = static_cast<double>(m.count);
  out.layer["wire.send_us_p50"] = median(tracer.durations_us("wire.send"));
  out.layer["wire.recv_us_p50"] = median(tracer.durations_us("wire.recv"));
  out.layer["serve.overhead_us_p50"] = out.e2e["latency_p50_us"] - f64_p50;
  out.layer["serve.sessions_aborted"] = static_cast<double>(daemon.sessions_aborted());
  out.layer["serve.admission_rejected"] = static_cast<double>(daemon.admission_rejected());
  out.layer["loadgen.lag_us_p99"] = windowed_quantile(a.lag_us, warm, win, 0.99, 0.5);
  out.layer["serve_latency_p99_us"] =
      windowed_quantile(a.latency_us, warm, win, 0.99, kBetterQuartile);
  out.layer["serve_frames_failed_ratio"] =
      static_cast<double>(out.failed) / static_cast<double>(out.attempted);
  return out;
}

}  // namespace ffbench
