// Shared plumbing of the repository benchmark: options, the per-pass
// outcome, in-memory span tracing, and small statistics helpers.
//
// Every workload is one function `Outcome run_<name>(const Options&,
// Tracer&)`. It generates its own inputs from the seed, times its calls
// into the library's public entry points, checks the outputs, and fills
// end-to-end metrics (always) and per-layer metrics (only when the tracer
// is enabled). Nothing here reaches inside the library: spans are recorded
// around public calls, and the library's own MetricsRegistry is consulted
// only where the program already fills one when handed it.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace ffbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Set-up is repeated at least kSetupReps times and for at least
/// kSetupSeconds per process, and its median reported. Most set-ups take
/// a few milliseconds or less: the median of eleven, the first few cold,
/// moved by 25-35% between runs, that of a few hundred by about half that.
inline constexpr int kSetupReps = 11;
inline constexpr double kSetupSeconds = 0.3;

/// Timings are taken per window (a slice of the run, a session, a chunk of
/// requests) and summarised by the better quartile over windows: the 25th
/// percentile of latencies, the 75th of rates. On a shared host,
/// interference from other tenants (vCPU preemption, a busy sibling
/// hyperthread) only ever makes a window slower, and it comes and goes
/// within a run; the better quartile tracks the program's own speed while
/// still pooling a quarter of the windows.
inline constexpr double kBetterQuartile = 0.25;

/// The downlink workloads, whose windows are hundreds of short sessions
/// per process, use the better twentieth instead (the 5th percentile of
/// latencies, the 95th of rates). On this kind of host a thread runs in one
/// of two speeds, ~35% apart, for stretches of seconds (a vCPU whose
/// physical core is shared with another tenant). How much of a run falls
/// in the slow state differs from run to run, so the better quartile,
/// which often sits between the two states, moved by 25-40% between runs
/// of the same code on downlink_ref; the better twentieth of its 0.5 ms
/// sessions moved by ~6%, and their median by ~19%.
inline constexpr double kBetterTwentieth = 0.05;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured window of one pass
  bool tiny = false;      // smallest inputs (self-test and trace probes)
  std::string run_dir;    // scratch for Unix sockets (inside the checkout)
};

/// True once the set-up times in `reps` are enough (two in a tiny run).
bool setup_done(const Options& opt, const std::vector<double>& reps);

/// What one workload pass measured and checked.
struct Outcome {
  std::uint64_t attempted = 0;  // operations attempted (frames, packets, locations)
  std::uint64_t failed = 0;     // operations that failed a correctness gate
  std::vector<std::string> errors;           // gate failures, human-readable
  std::map<std::string, double> e2e;         // end-to-end metrics
  std::map<std::string, double> layer;       // per-layer metrics (traced pass)
  std::map<std::string, std::string> context;  // precision, scheduler, ...
  std::map<std::string, double> counts;      // sample counts behind the timings
  /// Checksum of the pass's first operation result; equal inputs must give
  /// equal checksums across passes (compared between traced and untraced).
  std::uint64_t result_checksum = 0;

  void fail(std::uint64_t n, const std::string& why) {
    failed += n;
    errors.push_back(why);
  }
};

// ------------------------------------------------------------------ spans

/// In-memory span recorder. Each thread records into its own Lane (no
/// locking on the hot path); the tracer owns the lanes and writes every
/// span out once, at the end. A disabled tracer makes every call a no-op
/// that does not read the clock.
class Tracer {
 public:
  /// Global span id: lane index in the high bits, index within the lane low.
  using SpanId = std::int64_t;
  static constexpr SpanId kNoSpan = -1;

  struct Span {
    std::uint32_t name = 0;
    std::int64_t start_ns = 0;  // relative to the tracer's epoch
    std::int64_t end_ns = 0;
    SpanId parent = kNoSpan;
    std::int64_t request = -1;  // frame, block or location index
  };

  class Lane {
   public:
    Lane(Tracer& tracer, std::uint32_t index) : tracer_(&tracer), index_(index) {}
    /// Open a span; returns its id (kNoSpan when tracing is off).
    SpanId begin(std::uint32_t name, std::int64_t request = -1, SpanId parent = kNoSpan);
    void end(SpanId id);
    /// Record a completed span from two clock readings the caller took.
    SpanId record(std::uint32_t name, Clock::time_point start, Clock::time_point end,
                  std::int64_t request = -1, SpanId parent = kNoSpan);

   private:
    friend class Tracer;
    Tracer* tracer_;
    std::uint32_t index_;
    std::vector<Span> spans_;
  };

  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Intern a span name (call before the threads that use it start).
  std::uint32_t name(const std::string& n);
  /// A fresh lane for the calling thread; lives as long as the tracer.
  Lane& lane();

  /// Durations (us) of every span with this name, in recording order.
  std::vector<double> durations_us(const std::string& name) const;
  std::size_t span_count() const;

  /// Write every span as CSV (one header line of context, then
  /// lane,id,parent,name,request,start_us,end_us,self_us), where self time
  /// is the duration minus the part of it covered by child spans.
  void write_csv(const std::string& path, const std::string& context_json) const;

 private:
  std::int64_t rel_ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_).count();
  }
  std::vector<double> self_times_ns() const;  // parallel to the flattened spans

  bool enabled_;
  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<std::string> names_;
  std::deque<Lane> lanes_;
};

/// RAII span on one lane.
class ScopedSpan {
 public:
  ScopedSpan(Tracer::Lane& lane, std::uint32_t name, std::int64_t request = -1,
             Tracer::SpanId parent = Tracer::kNoSpan)
      : lane_(lane), id_(lane.begin(name, request, parent)) {}
  ~ScopedSpan() { lane_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer::Lane& lane_;
  Tracer::SpanId id_;
};

// ------------------------------------------------------------- statistics

/// Nearest-rank quantile (q in [0,1]) of an unsorted sample; 0 when empty.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);
/// Robust quantile of a long run: split v[skip:] into consecutive windows of
/// `window` samples (a trailing partial window is dropped unless it is the
/// only one), take quantile q of each, and return quantile `across` of the
/// per-window figures.
double windowed_quantile(const std::vector<double>& v, std::size_t skip,
                         std::size_t window, double q, double across);
/// Peak resident set size of this process so far, MiB.
double peak_rss_mb();
/// 64-bit FNV-1a style hash over the raw sample words of a span.
std::uint64_t hash_samples(ff::CSpan s);

// -------------------------------------------------------------- workloads

Outcome run_relay_serve(const Options& opt, Tracer& tracer);
Outcome run_downlink_ref(const Options& opt, Tracer& tracer);
Outcome run_downlink_pipelined_f32(const Options& opt, Tracer& tracer);
Outcome run_paper_eval(const Options& opt, Tracer& tracer);

}  // namespace ffbench
