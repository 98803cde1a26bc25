// Scheduler::run: cut the topological order into chains, bridge the
// channels that cross chains, and run chain passes — in rounds on the
// calling thread (reference, one chain) or on one worker per chain
// (throughput).
//
// Bridging keeps the Element API untouched. A crossing channel
// producer→consumer is split into three single-threaded pieces:
//
//   producer --emit()--> origin Channel     (touched only by producer chain)
//                          | drain, batch_size at a time
//                          v
//                       SpscRing            (the only shared structure)
//                          | fill, batch_size at a time
//                          v
//                        stub Channel --pop()--> consumer
//                                           (touched only by consumer chain)
//
// The producer's pass drains origin→ring after running its elements; the
// consumer's pass fills ring→stub before running its own. Each deque is
// owned by exactly one thread, so elements never know which mode they run
// under. When the origin closes and empties, the pass closes the ring; when
// the ring drains, the consumer's pass closes the stub — end-of-stream
// propagates through the bridge exactly like through a channel. Total
// buffering per bridged edge is origin + ring + stub, strictly more slack
// than the single channel of the one-chain reference mode, so no graph that
// completes under the reference mode can deadlock in throughput mode.
//
// Determinism: each element still processes its input FIFOs in order, on
// exactly one thread, with all randomness element-owned — the dataflow
// contract of element.hpp. The output stream is therefore bit-identical at
// ANY chain count, batch size and core count (tests/stream_test.cpp proves
// it, down to the relay-session checksum).
#include "stream/scheduler.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/affinity.hpp"
#include "common/check.hpp"
#include "common/parallel.hpp"
#include "stream/ring.hpp"

namespace ff::stream {

namespace {

/// One chain-crossing channel split into producer-side origin (the
/// channel already wired into the producer), the shared ring, and the
/// consumer-side stub the consumer is rewired onto for the run.
struct Bridge {
  Channel* origin = nullptr;
  Channel stub;
  SpscRing<Block> ring;
  std::size_t producer_chain = 0;
  std::size_t consumer_chain = 0;

  Bridge(Channel* ch, std::size_t ring_cap, std::size_t prod, std::size_t cons)
      : origin(ch), ring(ring_cap), producer_chain(prod), consumer_chain(cons) {
    stub.capacity = ch->capacity;
    stub.producer = ch->producer;
    stub.consumer = ch->consumer;
    stub.producer_port = ch->producer_port;
    stub.consumer_port = ch->consumer_port;
  }
};

/// A contiguous cut of the topological order and the bridges it fills
/// (inbound) and drains (outbound).
struct Chain {
  std::vector<Element*> elements;
  std::vector<Bridge*> inbound;
  std::vector<Bridge*> outbound;
  std::vector<const Channel*> internal;  // both endpoints in this chain

  bool finished() const {
    for (const Bridge* br : inbound)
      if (!br->stub.drained()) return false;
    for (const Channel* ch : internal)
      if (!ch->drained()) return false;
    for (const Bridge* br : outbound)
      if (!br->origin->drained() || !br->ring.closed()) return false;
    return true;
  }

  bool waiting_external() const {
    for (const Element* e : elements)
      if (e->waiting_external()) return true;
    return false;
  }
};

/// One pass over a chain: fill every inbound stub from its ring, give each
/// element one work() opportunity in topological order, then drain every
/// outbound origin into its ring. Rings move at most `batch` blocks per
/// transfer; `transfers` counts the blocks that crossed a ring. Returns
/// whether anything moved.
bool pass(Chain& chain, std::size_t batch, std::uint64_t& transfers) {
  bool moved = false;

  for (Bridge* br : chain.inbound) {
    Channel& stub = br->stub;
    const std::size_t space = std::min(
        batch, stub.fifo.size() >= stub.capacity ? 0 : stub.capacity - stub.fifo.size());
    const std::size_t got =
        br->ring.try_pop_batch(space, [&](Block&& b) { stub.fifo.push_back(std::move(b)); });
    if (got > 0) {
      stub.blocks_total += got;
      stub.depth_peak = std::max(stub.depth_peak, stub.fifo.size());
      transfers += got;
      moved = true;
    }
    if (!stub.closed && br->ring.drained()) {
      stub.closed = true;
      moved = true;
    }
  }

  for (Element* e : chain.elements) moved |= e->work();

  for (Bridge* br : chain.outbound) {
    Channel& origin = *br->origin;
    const std::size_t n = std::min(batch, origin.fifo.size());
    // A closed ring takes no push, not even an empty one (ring.hpp).
    const std::size_t pushed = n == 0 ? 0 : br->ring.try_push_batch(n, [&] {
      Block b = std::move(origin.fifo.front());
      origin.fifo.pop_front();
      return b;
    });
    if (pushed > 0) {
      transfers += pushed;
      moved = true;
    }
    if (origin.closed && origin.fifo.empty() && !br->ring.closed()) {
      br->ring.close();
      moved = true;
    }
  }
  return moved;
}

/// Reference mode: the single chain's passes as numbered rounds on the
/// calling thread. Returns the round count.
std::uint64_t run_rounds(const Graph& graph, const SchedulerConfig& cfg, Chain& chain) {
  std::uint64_t transfers = 0;  // stays 0: one chain has no bridges
  std::uint64_t rounds = 0;
  for (;;) {
    const bool moved = pass(chain, cfg.batch_size, transfers);
    ++rounds;
    // Quiescent point: every element's work() for this round has returned,
    // and none runs until the next round starts — live handler calls here
    // observe and mutate element state race-free.
    if (cfg.on_round) cfg.on_round(rounds);
    if (graph.finished()) break;
    // A round that moved nothing is a stuck graph — unless some element is
    // merely waiting on an external peer (a socket with no frame ready),
    // which is idleness, not deadlock. Such elements throttle the loop
    // themselves (they poll with a timeout inside work()).
    FF_CHECK_MSG(moved || chain.waiting_external(),
                 "stream graph stalled after " << rounds
                                               << " rounds: no element can make progress "
                                                  "(undrained channel with a blocked "
                                                  "producer — check queue capacities)");
    FF_CHECK_MSG(cfg.max_rounds == 0 || rounds < cfg.max_rounds,
                 "stream graph exceeded max_rounds = " << cfg.max_rounds);
  }
  if (cfg.metrics) cfg.metrics->add("stream.scheduler.rounds", rounds);
  return rounds;
}

/// Throughput mode: one worker thread per chain, the calling thread as the
/// progress watchdog. Returns the blocks transferred across rings.
std::uint64_t run_chains(const Graph& graph, const SchedulerConfig& cfg,
                         std::vector<Chain>& chains,
                         const std::vector<std::unique_ptr<Bridge>>& bridges) {
  const std::size_t n_chains = chains.size();
  std::atomic<bool> abort{false};
  std::atomic<std::uint64_t> progress{0};   // bumped on any chain progress
  std::atomic<std::uint64_t> transfers{0};  // blocks moved across rings
  std::atomic<std::size_t> done{0};         // workers that have returned
  std::vector<std::exception_ptr> errors(n_chains);

  auto chain_loop = [&](std::size_t c) {
    if (cfg.pin_cores) pin_current_thread_to_core(c);
    Chain& chain = chains[c];
    SpinBackoff backoff;
    try {
      for (;;) {
        if (abort.load(std::memory_order_relaxed)) return;
        std::uint64_t crossed = 0;
        if (pass(chain, cfg.batch_size, crossed)) {
          if (crossed > 0) transfers.fetch_add(crossed, std::memory_order_relaxed);
          progress.fetch_add(1, std::memory_order_relaxed);
          backoff.reset();
          continue;
        }
        if (chain.finished()) return;
        // An element idle on an external peer (waiting_external) is not a
        // wedge: feed the watchdog so a socket session with a quiet sender
        // outlives watchdog_ms. The element throttles itself (timeout poll
        // inside work()), so this pass isn't a busy spin.
        if (chain.waiting_external()) progress.fetch_add(1, std::memory_order_relaxed);
        backoff.pause();
      }
    } catch (...) {
      errors[c] = std::current_exception();
      abort.store(true, std::memory_order_relaxed);
    }
  };
  // Wrapper so every exit path — finished, aborted, or thrown — retires the
  // worker in `done` (the watchdog loop's termination condition).
  auto run_chain = [&](std::size_t c) {
    chain_loop(c);
    done.fetch_add(1, std::memory_order_release);
  };

  std::vector<std::thread> workers;
  workers.reserve(n_chains);
  for (std::size_t c = 0; c < n_chains; ++c) workers.emplace_back(run_chain, c);

  // The calling thread is the watchdog: some chain must make progress (or
  // retire) at least once per watchdog_ms, or the run is declared wedged
  // and torn down. A graph that is merely slow keeps ticking `progress`;
  // only a true deadlock goes quiet.
  bool watchdog_fired = false;
  if (cfg.watchdog_ms > 0.0) {
    using clock = std::chrono::steady_clock;
    std::uint64_t last_seen = ~std::uint64_t{0};
    auto last_change = clock::now();
    while (done.load(std::memory_order_acquire) < n_chains) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const std::uint64_t now_progress = progress.load(std::memory_order_relaxed) +
                                         done.load(std::memory_order_relaxed);
      if (now_progress != last_seen) {
        last_seen = now_progress;
        last_change = clock::now();
        continue;
      }
      const double quiet_ms =
          std::chrono::duration<double, std::milli>(clock::now() - last_change).count();
      if (quiet_ms > cfg.watchdog_ms) {
        watchdog_fired = true;
        abort.store(true, std::memory_order_relaxed);
        break;
      }
    }
  }
  for (auto& t : workers) t.join();

  for (std::size_t c = 0; c < n_chains; ++c)
    if (errors[c]) std::rethrow_exception(errors[c]);

  if (watchdog_fired && !graph.finished()) {
    // The pipeline picture of where the graph wedged: every bridge's ring
    // occupancy plus the stub/origin queue states around it.
    std::ostringstream os;
    os << "stream graph made no progress for " << cfg.watchdog_ms
       << " ms in throughput mode (" << n_chains << " chains, batch " << cfg.batch_size
       << "); ring occupancies:";
    for (const auto& br : bridges)
      os << " [" << br->origin->producer->name() << "->" << br->origin->consumer->name()
         << " chain" << br->producer_chain << "->chain" << br->consumer_chain
         << ": origin " << br->origin->fifo.size() << "/" << br->origin->capacity
         << ", ring " << br->ring.size() << "/" << br->ring.capacity()
         << (br->ring.closed() ? " closed" : "") << ", stub " << br->stub.fifo.size()
         << "/" << br->stub.capacity << "]";
    if (bridges.empty()) os << " (no rings: single chain holds the whole graph)";
    FF_CHECK_MSG(false, os.str());
  }
  FF_CHECK_MSG(graph.finished(),
               "throughput scheduler exited with undrained channels (scheduler bug)");

  const std::uint64_t total = transfers.load(std::memory_order_relaxed);
  if (cfg.metrics) {
    cfg.metrics->set("stream.scheduler.chains", static_cast<double>(n_chains));
    cfg.metrics->add("stream.ring.transfers", total);
  }
  return total;
}

}  // namespace

Scheduler::Scheduler(Graph& graph, SchedulerConfig cfg) : graph_(graph), cfg_(cfg) {}

std::uint64_t Scheduler::run() {
  const bool throughput = cfg_.mode == SchedulerMode::kThroughput;
  FF_CHECK_MSG(cfg_.batch_size >= 1, "SchedulerConfig.batch_size must be >= 1");
  FF_CHECK_MSG(throughput || cfg_.threads == 1,
               "SchedulerConfig.threads = "
                   << cfg_.threads
                   << " needs mode = throughput: reference mode runs the graph as one "
                      "chain on the calling thread (threads = 1)");
  FF_CHECK_MSG(!throughput || !cfg_.on_round,
               "SchedulerConfig.on_round is reference-mode only: the throughput "
               "pipeline has no global quiescent point between rounds — queue "
               "sample-exact writes with Element::write_at instead");
  graph_.validate();
  graph_.set_metrics(cfg_.metrics);

  // Contiguous cuts of the topological order: chain c gets
  // [c*n/chains, (c+1)*n/chains). Any cut is correct (determinism is
  // dataflow-borne); contiguity keeps most channels chain-internal.
  const std::vector<Element*>& order = graph_.topo_order();
  std::size_t n_chains = 1;
  if (throughput) n_chains = cfg_.threads == 0 ? default_thread_count() : cfg_.threads;
  n_chains = std::min(n_chains, order.size());
  std::vector<Chain> chains(n_chains);
  std::unordered_map<const Element*, std::size_t> chain_of;
  for (std::size_t c = 0; c < n_chains; ++c)
    for (std::size_t i = c * order.size() / n_chains; i < (c + 1) * order.size() / n_chains;
         ++i) {
      chains[c].elements.push_back(order[i]);
      chain_of[order[i]] = c;
    }

  // Bridge every chain-crossing channel and rewire its consumer onto the
  // stub for the duration of the run.
  std::vector<std::unique_ptr<Bridge>> bridges;
  for (const auto& ch : graph_.channels()) {
    const std::size_t pc = chain_of.at(ch->producer);
    const std::size_t cc = chain_of.at(ch->consumer);
    if (pc == cc) {
      chains[pc].internal.push_back(ch.get());
      continue;
    }
    auto br = std::make_unique<Bridge>(ch.get(), std::max(ch->capacity, cfg_.batch_size),
                                       pc, cc);
    ch->consumer->inputs_[ch->consumer_port] = &br->stub;
    chains[pc].outbound.push_back(br.get());
    chains[cc].inbound.push_back(br.get());
    bridges.push_back(std::move(br));
  }

  // Whatever happens below, put the consumers back on their real channels.
  struct RewireGuard {
    std::vector<std::unique_ptr<Bridge>>* bridges;
    ~RewireGuard() {
      for (auto& br : *bridges)
        br->origin->consumer->inputs_[br->origin->consumer_port] = br->origin;
    }
  } rewire_guard{&bridges};

  const std::uint64_t result = throughput ? run_chains(graph_, cfg_, chains, bridges)
                                          : run_rounds(graph_, cfg_, chains.front());

  if (cfg_.metrics) {
    // Peak queue occupancy per channel, keyed by the consuming port, plus
    // per-ring statistics. In reference mode the schedule is a function of
    // the graph, so these gauges are too; in throughput mode they depend on
    // thread timing and are excluded from determinism comparisons, like
    // timer values (docs/OBSERVABILITY.md).
    for (const auto& ch : graph_.channels()) {
      const std::string name = "stream." + ch->consumer->name() + ".in" +
                               std::to_string(ch->consumer_port) + ".depth_peak";
      cfg_.metrics->set(name, static_cast<double>(ch->depth_peak));
    }
    for (const auto& br : bridges) {
      const std::string prefix = "stream.ring." + br->origin->consumer->name() + ".in" +
                                 std::to_string(br->origin->consumer_port) + ".";
      cfg_.metrics->set(prefix + "depth_peak", static_cast<double>(br->ring.depth_peak()));
      cfg_.metrics->add(prefix + "push_stalls", br->ring.producer_stalls());
      cfg_.metrics->add(prefix + "pop_stalls", br->ring.consumer_stalls());
    }
  }
  return result;
}

}  // namespace ff::stream
