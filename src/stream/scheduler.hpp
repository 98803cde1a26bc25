// The stream Scheduler: one execution model over a Graph, in two modes.
//
// Scheduler::run validates the graph, takes its topological order
// (Graph::topo_order) and cuts it into contiguous chains. Every channel
// whose endpoints land in different chains is bridged by a lock-free SPSC
// ring (ring.hpp). One pass over a chain fills its inbound rings into the
// consumers' stub channels, gives each of its elements one work()
// opportunity in order, and drains its outbound channels into their rings.
// The two modes differ only in how many chains there are and who runs
// their passes:
//
// Reference (SchedulerMode::kReference) — exactly one chain, run inline on
// the calling thread, one pass per round. The round structure — and so
// every element's state trajectory, the queue depth peaks and the round
// count — is a function of the graph alone. on_round fires after every
// round at a quiescent point. The run ends when every channel is closed and
// drained; a round that moves nothing earlier than that is a stuck graph
// and fails crisply.
//
// Throughput (SchedulerMode::kThroughput) — `threads` chains, each on its
// own long-lived worker thread (optionally pinned to a core), with no
// global barrier: while chain 0 generates block k, chain 1 filters block
// k-1 and chain 2 decodes block k-2. Rings move up to batch_size blocks per
// index publication. Output is bit-identical to the reference mode —
// determinism comes from the graph's dataflow (each element processes its
// input FIFOs in order on exactly one thread), not from the round
// structure — but *scheduling* observables (queue depth peaks, stall
// counts) become timing-dependent; see docs/OBSERVABILITY.md for which
// stream.* metrics stay comparable. A wall-clock progress watchdog converts
// deadlocked graphs into a crisp error carrying every ring's occupancy.
//
// Telemetry (when a registry is injected): per-element block/sample
// counters and per-block latency timers recorded by the elements
// themselves, per-channel peak-occupancy gauges
// (stream.<consumer>.in<port>.depth_peak), stall counters, and
// stream.scheduler.rounds (reference) / stream.scheduler.chains plus
// stream.ring.* (throughput).
#pragma once

#include <cstdint>
#include <functional>

#include "stream/graph.hpp"

namespace ff::stream {

enum class SchedulerMode {
  kReference,   ///< one chain in deterministic rounds (the bit-exact baseline)
  kThroughput,  ///< pinned per-core element chains over lock-free SPSC rings
};

struct SchedulerConfig {
  /// Throughput mode: number of pipeline chains / dedicated worker threads
  /// (0 = the common/parallel default, FF_THREADS / hardware concurrency).
  /// Reference mode is one chain on the calling thread and requires 1.
  std::size_t threads = 1;
  /// Optional telemetry sink, installed on every element for the run.
  MetricsRegistry* metrics = nullptr;
  /// Safety valve for misconfigured (e.g. unbounded-source) graphs:
  /// abort after this many rounds. 0 = no limit. Reference mode only; the
  /// throughput mode's safety valve is the watchdog below.
  std::uint64_t max_rounds = 0;

  /// Execution mode. kReference is the default and the determinism
  /// reference; kThroughput must reproduce its output bit-for-bit
  /// (tests/stream_test.cpp holds it to that).
  SchedulerMode mode = SchedulerMode::kReference;
  /// Throughput mode: blocks moved per ring transfer. 1 = no batching.
  /// Larger batches amortize the rings' index traffic at the cost of
  /// pipeline latency; output samples never change.
  std::size_t batch_size = 1;
  /// Throughput mode: pin chain k's worker to visible core k (mod core
  /// count) via common/affinity. Graceful no-op where unsupported.
  bool pin_cores = false;
  /// Throughput mode stuck-graph watchdog: abort when no block moves
  /// across any ring (and no chain makes local progress) for this long.
  /// The error lists per-chain ring occupancies. 0 = disabled.
  double watchdog_ms = 10000.0;

  /// Reference mode: invoked after every round (with the 1-based round
  /// number) at the global quiescent point — no element is mid-work, so
  /// this is the safe place to call live read/write handlers
  /// (Graph::handler) or queue positioned writes. Must not change the
  /// graph topology. Throughput mode has no global quiescent point and
  /// FF_CHECKs this is empty — use Element::write_at for sample-exact
  /// writes there.
  std::function<void(std::uint64_t round)> on_round;
};

class Scheduler {
 public:
  explicit Scheduler(Graph& graph, SchedulerConfig cfg = {});

  /// Run the graph to completion (every source exhausted, every channel
  /// drained). Returns the number of rounds executed (reference mode) or
  /// the total number of blocks transferred across chain-bridging rings
  /// (throughput mode; 0 when the whole graph fit in one chain).
  std::uint64_t run();

  const SchedulerConfig& config() const { return cfg_; }

 private:
  Graph& graph_;
  SchedulerConfig cfg_;
};

}  // namespace ff::stream
