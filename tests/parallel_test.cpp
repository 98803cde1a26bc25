// Tests for the deterministic parallel execution engine (common/parallel):
// coverage, exception propagation, nested-call safety, and the thread-count
// determinism contract of run_experiment.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "common/parallel.hpp"
#include "common/rng.hpp"
#include "common/seeding.hpp"
#include "eval/experiment.hpp"

namespace ff {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                    std::size_t{8}}) {
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, std::size_t{7},
                                std::size_t{64}, std::size_t{1000}}) {
      std::vector<std::atomic<int>> hits(n);
      parallel_for(n, [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
      for (std::size_t i = 0; i < n; ++i)
        ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelFor, ResultSlotsMatchSerialReference) {
  const std::size_t n = 512;
  std::vector<double> serial(n), parallel(n);
  const auto body = [](std::size_t i) {
    double acc = static_cast<double>(i);
    for (int k = 0; k < 50; ++k) acc = acc * 1.0000001 + static_cast<double>(k);
    return acc;
  };
  parallel_for(n, [&](std::size_t i) { serial[i] = body(i); }, 1);
  parallel_for(n, [&](std::size_t i) { parallel[i] = body(i); }, 8);
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(serial[i], parallel[i]);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  EXPECT_THROW(
      parallel_for(
          100,
          [](std::size_t i) {
            if (i == 37) throw std::runtime_error("boom");
          },
          4),
      std::runtime_error);
  // The pool survives a failed loop and keeps scheduling work.
  std::atomic<int> count{0};
  parallel_for(100, [&](std::size_t) { count.fetch_add(1); }, 4);
  EXPECT_EQ(count.load(), 100);
}

TEST(ParallelFor, ExceptionAbortsRemainingChunks) {
  // After the throw, other workers stop at their next chunk boundary; far
  // fewer than all indices should execute when the very first one throws.
  std::atomic<int> executed{0};
  try {
    parallel_for(
        1u << 20,
        [&](std::size_t i) {
          if (i == 0) throw std::logic_error("first");
          executed.fetch_add(1);
        },
        2);
    FAIL() << "expected exception";
  } catch (const std::logic_error&) {
  }
  EXPECT_LT(executed.load(), 1 << 20);
}

TEST(ParallelFor, NestedCallsRunInlineWithoutDeadlock) {
  const std::size_t outer = 16, inner = 64;
  std::vector<std::atomic<int>> hits(outer * inner);
  parallel_for(
      outer,
      [&](std::size_t i) {
        EXPECT_TRUE(inside_parallel_region());
        parallel_for(inner, [&](std::size_t j) { hits[i * inner + j].fetch_add(1); }, 4);
      },
      4);
  for (auto& h : hits) ASSERT_EQ(h.load(), 1);
  EXPECT_FALSE(inside_parallel_region());
}

TEST(ParallelFor, DefaultThreadCountHonoursEnvOverride) {
  ::setenv("FF_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3u);
  ::setenv("FF_THREADS", "garbage", 1);
  EXPECT_GE(default_thread_count(), 1u);  // falls back to hardware
  ::unsetenv("FF_THREADS");
  EXPECT_GE(default_thread_count(), 1u);
}


// ------------------------------------------------------------- seeding

TEST(Seeding, ForkNamedMatchesTheHistoricalSpelling) {
  // common/seeding.hpp replaced the hand-rolled master.fork(fnv1a_64(name))
  // spelling used by run_experiment and the stream elements. The helpers
  // must stay byte-equivalent forever: the experiment checksum
  // (518fed5126199c41, Experiment.StandardRunChecksumIsPinned) is pinned on
  // these exact streams.
  Rng a(42), b(42);
  Rng forked = seeding::fork_named(a, "paper_home");
  Rng manual = b.fork(fnv1a_64("paper_home"));
  for (int i = 0; i < 16; ++i) EXPECT_EQ(forked.engine()(), manual.engine()());
}

TEST(Seeding, ForkIndexedMatchesPlainFork) {
  Rng a(7), b(7);
  Rng forked = seeding::fork_indexed(a, 3);
  Rng manual = b.fork(3);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(forked.engine()(), manual.engine()());
}

TEST(Seeding, NamedStreamMatchesRootForkSpelling) {
  Rng manual_root(99);
  Rng manual = manual_root.fork(fnv1a_64("noise"));
  Rng stream = seeding::named_stream(99, "noise");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(stream.engine()(), manual.engine()());
}

TEST(Seeding, ForkedStreamsAreIndependentOfSiblings) {
  // Consuming one forked stream must not perturb its siblings — the
  // property that lets the city/experiment planning phase hand a private
  // stream to every parallel job.
  Rng master1(5);
  Rng s0 = seeding::fork_named(master1, "site.0");
  Rng s1 = seeding::fork_named(master1, "site.1");
  const std::uint64_t first_of_s1 = s1.engine()();

  Rng master2(5);
  Rng t0 = seeding::fork_named(master2, "site.0");
  for (int i = 0; i < 100; ++i) (void)t0.engine()();  // drain the first stream
  Rng t1 = seeding::fork_named(master2, "site.1");
  EXPECT_EQ(t1.engine()(), first_of_s1);

  // Equally labelled streams match; differently labelled ones differ.
  Rng master3(5);
  Rng u0 = seeding::fork_named(master3, "site.0");
  const std::uint64_t first_of_u0 = u0.engine()();
  EXPECT_EQ(s0.engine()(), first_of_u0);
  EXPECT_NE(first_of_u0, first_of_s1);
}

// ---------------------------------------------------------- determinism

TEST(Experiment, ThreadCountNeverChangesResults) {
  // The engine's headline contract: 1-thread and 4-thread runs of the same
  // config are element-wise bit-identical.
  eval::ExperimentConfig cfg;
  cfg.clients_per_plan = 3;
  cfg.seed = 97;
  cfg.threads = 1;
  const auto serial = eval::run_experiment(cfg);
  cfg.threads = 4;
  const auto parallel = eval::run_experiment(cfg);

  ASSERT_EQ(serial.size(), parallel.size());
  ASSERT_EQ(serial.size(), 4u * cfg.clients_per_plan);  // 4 floor plans
  for (std::size_t i = 0; i < serial.size(); ++i) {
    const auto& a = serial[i];
    const auto& b = parallel[i];
    EXPECT_EQ(a.plan, b.plan);
    EXPECT_EQ(a.client.x, b.client.x);
    EXPECT_EQ(a.client.y, b.client.y);
    EXPECT_EQ(a.schemes.ap_only_mbps, b.schemes.ap_only_mbps);
    EXPECT_EQ(a.schemes.hd_mesh_mbps, b.schemes.hd_mesh_mbps);
    EXPECT_EQ(a.schemes.ff_mbps, b.schemes.ff_mbps);
    EXPECT_EQ(a.schemes.af_mbps, b.schemes.af_mbps);
    EXPECT_EQ(a.schemes.baseline_snr_db, b.schemes.baseline_snr_db);
    EXPECT_EQ(a.schemes.baseline_streams, b.schemes.baseline_streams);
    EXPECT_EQ(a.category, b.category);
  }
}

TEST(Experiment, StandardRunChecksumIsPinned) {
  // The standard evaluation (bench_common.hpp standard_run, every figure
  // bench) at the worker count FF_THREADS or the hardware gives. Any change
  // to channel synthesis, relay design, scheme rates or the RNG streams
  // moves this pin; the thread count never does.
  const auto results = eval::run_experiment(
      eval::ExperimentConfig::for_testbed(eval::TestbedPreset::kMimo2x2)
          .with_clients(50)
          .with_seed(20140817));
  ASSERT_EQ(results.size(), 200u);
  EXPECT_EQ(results.checksum(), 0x518fed5126199c41ULL);
}

TEST(Experiment, SeedStillSelectsDistinctScenarios) {
  eval::ExperimentConfig a, b;
  a.clients_per_plan = b.clients_per_plan = 2;
  a.seed = 1;
  b.seed = 2;
  const auto ra = eval::run_experiment(a);
  const auto rb = eval::run_experiment(b);
  ASSERT_EQ(ra.size(), rb.size());
  bool any_differ = false;
  for (std::size_t i = 0; i < ra.size(); ++i)
    if (ra[i].client.x != rb[i].client.x) any_differ = true;
  EXPECT_TRUE(any_differ);
}

}  // namespace
}  // namespace ff
