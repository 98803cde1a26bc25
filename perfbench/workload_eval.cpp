// paper_eval: eval::run_experiment with the MIMO 2x2 testbed on all four
// floor plans and 2 worker threads, one request after another for the
// measured window. Each request evaluates one fresh client location per
// plan, drawn from its own seed (derived from the workload seed), so no two
// requests repeat work. No stream or serve code runs.
//
// Per-layer numbers come from the experiment's own MetricsRegistry
// (ExperimentConfig::with_metrics) and from replaying the first request's
// locations through eval::build_link / eval::evaluate_location.
#include <string>
#include <vector>

#include "bench.hpp"
#include "common/rng.hpp"
#include "common/seeding.hpp"
#include "common/telemetry.hpp"
#include "eval/experiment.hpp"
#include "eval/schemes.hpp"
#include "eval/testbed.hpp"

namespace ffbench {

using namespace ff;

namespace {

constexpr std::size_t kThreads = 2;

std::uint64_t request_seed(std::uint64_t seed, std::size_t r) {
  return seed * 1000003ULL + r;
}

std::uint64_t mix(std::uint64_t h, const void* p, std::size_t n) {
  const auto* b = static_cast<const unsigned char*>(p);
  for (std::size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 0x100000001B3ULL;
  return h;
}

std::uint64_t scheme_checksum(std::uint64_t h, const eval::SchemeResult& s) {
  const double v[] = {s.ap_only_mbps, s.hd_mesh_mbps, s.ff_mbps, s.af_mbps,
                      s.baseline_snr_db};
  h = mix(h, v, sizeof v);
  return mix(h, &s.baseline_streams, sizeof s.baseline_streams);
}

std::uint64_t results_checksum(const eval::ExperimentResults& res) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const eval::LocationResult& r : res) {
    h = mix(h, r.plan.data(), r.plan.size());
    h = mix(h, &r.client.x, sizeof r.client.x);
    h = mix(h, &r.client.y, sizeof r.client.y);
    h = scheme_checksum(h, r.schemes);
    const int cat = static_cast<int>(r.category);
    h = mix(h, &cat, sizeof cat);
  }
  return h;
}

eval::ExperimentConfig request_config(std::uint64_t seed, std::size_t clients,
                                      MetricsRegistry* m) {
  return eval::ExperimentConfig::for_testbed(eval::TestbedPreset::kMimo2x2)
      .with_clients(clients)
      .with_seed(seed)
      .with_threads(kThreads)
      .with_metrics(m);
}

}  // namespace

Outcome run_paper_eval(const Options& opt, Tracer& tracer) {
  Outcome out;
  out.context["precision"] = "f64";
  out.context["scheduler"] = "parallel_for";
  out.context["threads"] = std::to_string(kThreads);
  const bool trace = tracer.enabled();
  const auto wall0 = Clock::now();
  const std::size_t clients = 1;  // per plan and request: 4 locations

  // ---- set-up, several times: configuration plus one warm-up request of a
  // single location per plan (worker pool start, lazily built tables). The
  // warm-up locations are the same for every seed, so set-up does the same
  // work in every run.
  std::vector<double> setup;
  while (!setup_done(opt, setup)) {
    const auto t0 = Clock::now();
    const auto cfg = request_config(/*seed=*/1, 1, nullptr);
    (void)eval::run_experiment(cfg);
    setup.push_back(seconds_between(t0, Clock::now()));
  }
  out.e2e["setup_s"] = median(setup);

  MetricsRegistry reg;
  Tracer::Lane& lane = tracer.lane();
  const auto n_request = tracer.name("eval.run_experiment");
  std::vector<double> request_us;
  std::uint64_t first_checksum = 0;
  std::size_t locations = 0;
  double busy_s = 0.0;

  const auto window_start = Clock::now();
  for (std::size_t r = 0;
       r == 0 || seconds_between(window_start, Clock::now()) < opt.seconds; ++r) {
    const auto cfg = request_config(request_seed(opt.seed, r), clients,
                                    trace ? &reg : nullptr);
    const auto t0 = Clock::now();
    const Tracer::SpanId sp = lane.begin(n_request, static_cast<std::int64_t>(r));
    const eval::ExperimentResults res = eval::run_experiment(cfg);
    lane.end(sp);
    const auto t1 = Clock::now();
    request_us.push_back(us_between(t0, t1));
    busy_s += seconds_between(t0, t1);
    locations += res.size();
    out.attempted += cfg.clients_per_plan * 4;
    if (res.size() != cfg.clients_per_plan * 4)
      out.fail(cfg.clients_per_plan * 4 - res.size(),
               "request " + std::to_string(r) + ": missing locations");
    if (r == 0) first_checksum = results_checksum(res);
  }
  out.result_checksum = first_checksum;

  // Windows are chunks of consecutive requests of at least 0.5 s (~120
  // requests, so p90 has 12 beyond it): the rate and the latency quantiles
  // are taken per chunk and summarised by the better quartile (see
  // kBetterQuartile).
  std::vector<double> rates, chunk_p50, chunk_p90;
  {
    std::vector<double> chunk;
    double t = 0.0;
    for (const double us : request_us) {
      chunk.push_back(us);
      t += us * 1e-6;
      if (t >= 0.5) {
        rates.push_back(static_cast<double>(chunk.size() * clients * 4) / t);
        chunk_p50.push_back(quantile(chunk, 0.50));
        chunk_p90.push_back(quantile(chunk, 0.90));
        chunk.clear();
        t = 0.0;
      }
    }
    if (rates.empty()) {
      rates.push_back(static_cast<double>(chunk.size() * clients * 4) / t);
      chunk_p50.push_back(quantile(chunk, 0.50));
      chunk_p90.push_back(quantile(chunk, 0.90));
    }
  }
  out.e2e["latency_p50_us"] = quantile(chunk_p50, kBetterQuartile);
  out.e2e["latency_p90_us"] = quantile(chunk_p90, kBetterQuartile);
  out.e2e["throughput_per_s"] = quantile(rates, 1.0 - kBetterQuartile);
  out.e2e["peak_rss_mb"] = peak_rss_mb();
  out.counts["latency_samples"] = static_cast<double>(request_us.size());
  out.counts["locations"] = static_cast<double>(locations);
  out.counts["rate_windows"] = static_cast<double>(rates.size());
  out.counts["locations_per_request"] = static_cast<double>(clients * 4);

  // ---- gate: the first request, re-run with the experiment's metrics
  // registry attached, reproduces the timed run's results bit for bit.
  MetricsRegistry check_reg;
  const eval::ExperimentResults again =
      eval::run_experiment(request_config(request_seed(opt.seed, 0), clients, &check_reg));
  if (results_checksum(again) != first_checksum)
    out.fail(again.size(), "request 0: results differ between the timed and traced runs");

  // ---- the same locations through build_link / evaluate_location, as
  // run_experiment's serial phase draws them; must match bit for bit.
  const auto cfg0 = request_config(request_seed(opt.seed, 0), clients, nullptr);
  eval::SchemeOptions sopts;
  sopts.design = eval::default_design_options(cfg0.testbed);
  Rng master(cfg0.seed);
  std::size_t idx = 0;
  std::vector<double> link_us, evaluate_us;
  const auto n_link = tracer.name("eval.build_link");
  const auto n_evaluate = tracer.name("eval.evaluate_location");
  for (const auto& plan : channel::FloorPlan::evaluation_set()) {
    const eval::Placement placement = eval::make_placement(plan);
    Rng plan_rng = seeding::fork_named(master, plan.name());
    for (std::size_t c = 0; c < cfg0.clients_per_plan; ++c, ++idx) {
      const channel::Point client = eval::random_client_location(plan, plan_rng);
      Rng rng = seeding::fork_indexed(plan_rng, c);
      const auto t0 = Clock::now();
      const relay::RelayLink link = eval::build_link(placement, client, cfg0.testbed, rng);
      const auto t1 = Clock::now();
      const eval::SchemeResult sr = eval::evaluate_location(link, sopts);
      const auto t2 = Clock::now();
      link_us.push_back(us_between(t0, t1));
      evaluate_us.push_back(us_between(t1, t2));
      lane.record(n_link, t0, t1, static_cast<std::int64_t>(idx));
      lane.record(n_evaluate, t1, t2, static_cast<std::int64_t>(idx));
      if (idx < again.size() &&
          scheme_checksum(0, sr) != scheme_checksum(0, again[idx].schemes))
        out.fail(1, "location " + std::to_string(idx) +
                        ": build_link/evaluate_location replay differs from run_experiment");
    }
  }
  out.counts["window_s"] = seconds_between(wall0, Clock::now());

  if (!trace) return out;

  const MetricsSnapshot snap = reg.snapshot();
  double location_sum_us = 0.0;
  for (const MetricValue& m : snap.timers)
    if (m.name == "eval.location.wall_us") {
      out.layer["eval.location_us_p50"] = m.p50;
      out.layer["eval.location_us_p99"] = m.p99;
      location_sum_us = m.sum;
    }
  out.layer["common.parallel.idle_share"] =
      1.0 - location_sum_us * 1e-6 / (static_cast<double>(kThreads) * busy_s);
  out.layer["eval.build_link_us_p50"] = median(link_us);
  out.layer["eval.evaluate_location_us_p50"] = median(evaluate_us);
  const double locs = static_cast<double>(locations);
  out.layer["relay.cnf.splits"] = 0.0;
  out.layer["relay.tuner.iterations"] = 0.0;
  for (const MetricValue& m : snap.counters) {
    // Per evaluated location, so the count does not scale with the window.
    if (m.name == "relay.cnf.splits" || m.name == "relay.tuner.iterations")
      out.layer[m.name] = static_cast<double>(m.count) / locs;
  }
  out.layer["eval.locations"] = locs;
  return out;
}

}  // namespace ffbench
