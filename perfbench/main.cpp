// ffbench: runs one workload of the repository benchmark and prints its
// result as one JSON object on the last line of standard output.
//
//   ffbench --workload NAME --seed N --seconds S --trace 0|1
//           [--tiny] [--run-dir DIR] [--trace-dir DIR]
//
// --trace 0 measures the end-to-end metrics with tracing off. --trace 1
// runs the workload twice for S/2 seconds each, untraced then traced, and
// prints the per-layer metrics of the traced pass plus the tracing overhead
// (the traced pass's throughput against the untraced one's). Layers the
// workload does not exercise are read from a tiny traced run of the
// workload that does, so every per-layer metric is always present. The
// traced pass's spans go to DIR/<workload>.trace.csv.
//
// The line before the result carries the hardware and run context (nproc,
// kernel ISA, precision, scheduler) and the sample counts behind the
// timings. Exit status: 0 when every correctness gate held, 1 when one
// failed (the result is still printed, with correct=false), 2 on bad usage
// or an error that prevented a result.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "bench.hpp"
#include "dsp/kernels/kernels.hpp"

namespace {

using namespace ffbench;

using WorkloadFn = Outcome (*)(const Options&, Tracer&);

struct Workload {
  const char* name;
  WorkloadFn run;
};

constexpr Workload kWorkloads[] = {
    {"relay_serve", run_relay_serve},
    {"downlink_ref", run_downlink_ref},
    {"downlink_pipelined_f32", run_downlink_pipelined_f32},
    {"paper_eval", run_paper_eval},
};

struct Metric {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json (perfbench/selftest.py checks it).
constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"latency_p50_us", "us"},
    {"latency_p90_us", "us"},
    {"throughput_per_s", "1/s"},
};

constexpr Metric kPerLayer[] = {
    {"relay.f64.block_us_p50", "us"},
    {"relay.f64.block_us_p99", "us"},
    {"relay.f32.block_us_p50", "us"},
    {"relay.f64.realtime_ratio", "ratio"},
    {"relay.f32.realtime_ratio", "ratio"},
    {"stream.out.block_us_p50", "us"},
    {"stream.relay.block_us_p50", "us"},
    {"stream.relay.in0.depth_peak", "blocks"},
    {"stream.in.stalls", "count"},
    {"wire.send_us_p50", "us"},
    {"wire.recv_us_p50", "us"},
    {"serve.overhead_us_p50", "us"},
    {"serve.sessions_aborted", "count"},
    {"serve.admission_rejected", "count"},
    {"loadgen.lag_us_p99", "us"},
    {"serve_latency_p99_us", "us"},
    {"serve_frames_failed_ratio", "ratio"},
    {"stream.src.block_us_p50", "us"},
    {"stream.src_cfo.block_us_p50", "us"},
    {"stream.chan_sd.block_us_p50", "us"},
    {"stream.chan_sr.block_us_p50", "us"},
    {"stream.chan_rd.block_us_p50", "us"},
    {"stream.add.block_us_p50", "us"},
    {"channel.noise_us_p50", "us"},
    {"common.rng.cgaussian_ns", "ns"},
    {"common.rng.cgaussian32_ns", "ns"},
    {"stream.scheduler.self_share", "ratio"},
    {"stream.scheduler.rounds", "count"},
    {"stream.ring.transfers", "count"},
    {"stream.ring.push_stalls", "count"},
    {"stream.ring.pop_stalls", "count"},
    {"stream.bottleneck_share", "ratio"},
    {"phy.decode_us_p50", "us"},
    {"session_packets_failed_ratio", "ratio"},
    {"eval.location_us_p50", "us"},
    {"eval.location_us_p99", "us"},
    {"common.parallel.idle_share", "ratio"},
    {"eval.build_link_us_p50", "us"},
    {"eval.evaluate_location_us_p50", "us"},
    {"relay.cnf.splits", "count"},
    {"relay.tuner.iterations", "count"},
    {"eval.locations", "count"},
    {"trace.overhead_share", "ratio"},
};

/// Share of CPU time the hypervisor took from this machine (the "steal"
/// column of /proc/stat), over the jiffies counted since `since`. Recorded
/// with every result: timings taken while it is high are noisy.
struct CpuTimes {
  unsigned long long steal = 0, total = 0;
};

CpuTimes read_cpu_times() {
  CpuTimes t;
  if (FILE* f = std::fopen("/proc/stat", "r")) {
    unsigned long long v[8] = {};
    if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2],
                    &v[3], &v[4], &v[5], &v[6], &v[7]) == 8) {
      t.steal = v[7];
      for (const auto x : v) t.total += x;
    }
    std::fclose(f);
  }
  return t;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "ffbench: %s\nusage: ffbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--tiny] [--run-dir DIR] [--trace-dir DIR]\n",
               why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const Metric* begin, const Metric* end,
                         const std::map<std::string, double>& values) {
  std::string out = "{";
  for (const Metric* m = begin; m != end; ++m) {
    if (out.size() > 1) out += ", ";
    const auto it = values.find(m->name);
    if (it == values.end())
      throw std::runtime_error(std::string("metric not measured: ") + m->name);
    out += json_string(m->name) + ": {\"value\": " + json_number(it->second) +
           ", \"unit\": " + json_string(m->unit) + "}";
  }
  return out + "}";
}

void merge_outcome(Outcome& into, const Outcome& from, const std::string& label) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  for (const std::string& e : from.errors) into.errors.push_back(label + ": " + e);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  int trace = -1;
  bool have_seed = false, have_seconds = false;
  std::string trace_dir = ".";
  opt.run_dir = ".";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + a).c_str());
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        opt.workload = value();
      } else if (a == "--seed") {
        opt.seed = std::stoull(value());
        have_seed = true;
      } else if (a == "--seconds") {
        opt.seconds = std::stod(value());
        have_seconds = true;
      } else if (a == "--trace") {
        trace = std::stoi(value());
      } else if (a == "--tiny") {
        opt.tiny = true;
      } else if (a == "--run-dir") {
        opt.run_dir = value();
      } else if (a == "--trace-dir") {
        trace_dir = value();
      } else {
        usage(("unknown argument " + a).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + a).c_str());
    }
  }
  if (!have_seed || !have_seconds || (trace != 0 && trace != 1))
    usage("--seed, --seconds and --trace 0|1 are required");
  if (!(opt.seconds > 0.0)) usage("--seconds must be positive");
  const Workload* wl = nullptr;
  for (const Workload& w : kWorkloads)
    if (opt.workload == w.name) wl = &w;
  if (!wl) usage(("unknown workload '" + opt.workload + "'").c_str());

  const CpuTimes cpu0 = read_cpu_times();
  try {
    Outcome result;
    std::map<std::string, double> metrics;
    std::map<std::string, std::string> context;
    std::map<std::string, double> counts;
    if (trace == 0) {
      Tracer off(false);
      result = wl->run(opt, off);
      metrics = result.e2e;
      context = result.context;
      counts = result.counts;
    } else {
      Options half = opt;
      half.seconds = opt.seconds / 2.0;
      Tracer off(false);
      const Outcome plain = wl->run(half, off);
      Tracer on(true);
      const Outcome traced = wl->run(half, on);
      merge_outcome(result, plain, "untraced pass");
      merge_outcome(result, traced, "traced pass");
      if (plain.result_checksum != traced.result_checksum)
        result.fail(1, "traced and untraced passes disagree on the first result");
      metrics = traced.layer;
      context = traced.context;
      counts = traced.counts;
      metrics["trace.overhead_share"] =
          1.0 - traced.e2e.at("throughput_per_s") / plain.e2e.at("throughput_per_s");
      counts["trace_spans"] = static_cast<double>(on.span_count());

      // Layers this workload does not exercise: tiny traced probes of the
      // workloads that do.
      for (const Workload& w : kWorkloads) {
        if (&w == wl) continue;
        Options probe = opt;
        probe.workload = w.name;
        probe.tiny = true;
        probe.seconds = 0.5;
        Tracer probe_tracer(true);
        const Outcome p = w.run(probe, probe_tracer);
        merge_outcome(result, p, std::string("probe ") + w.name);
        for (const auto& [k, v] : p.layer) metrics.emplace(k, v);
      }

      std::filesystem::create_directories(trace_dir);
      std::string ctx = "{\"workload\": " + json_string(opt.workload) +
                        ", \"seed\": " + std::to_string(opt.seed) +
                        ", \"isa\": " + json_string(ff::dsp::kernels::isa_name()) + "}";
      on.write_csv((std::filesystem::path(trace_dir) / (opt.workload + ".trace.csv")).string(),
                   ctx);
    }
    if (result.attempted == 0) result.fail(0, "no operation was attempted");

    // Hardware and run context, then the result line.
    std::string ctx = "{\"context\": {\"workload\": " + json_string(opt.workload) +
                      ", \"seed\": " + std::to_string(opt.seed) +
                      ", \"seconds\": " + json_number(opt.seconds) +
                      ", \"trace\": " + std::to_string(trace) +
                      ", \"tiny\": " + (opt.tiny ? "true" : "false") +
                      ", \"nproc\": " + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN)) +
                      ", \"isa\": " + json_string(ff::dsp::kernels::isa_name());
    for (const auto& [k, v] : context) ctx += ", " + json_string(k) + ": " + json_string(v);
    const CpuTimes cpu1 = read_cpu_times();
    const double steal = cpu1.total > cpu0.total
                             ? static_cast<double>(cpu1.steal - cpu0.steal) /
                                   static_cast<double>(cpu1.total - cpu0.total)
                             : 0.0;
    ctx += ", \"cpu_steal_share\": " + json_number(steal);
    ctx += "}, \"counts\": {";
    bool first = true;
    for (const auto& [k, v] : counts) {
      ctx += (first ? "" : ", ") + json_string(k) + ": " + json_number(v);
      first = false;
    }
    ctx += "}}";
    for (const std::string& e : result.errors) std::fprintf(stderr, "ffbench: GATE: %s\n", e.c_str());

    if (!result.errors.empty() && result.failed == 0) result.failed = 1;
    const bool correct = result.failed == 0;
    const std::string m = trace == 0
                              ? metrics_json(std::begin(kEndToEnd), std::end(kEndToEnd), metrics)
                              : metrics_json(std::begin(kPerLayer), std::end(kPerLayer), metrics);
    std::printf("%s\n", ctx.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(result.attempted, 1)),
                static_cast<unsigned long long>(result.failed), m.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "ffbench: error: %s\n", e.what());
    return 2;
  }
}
