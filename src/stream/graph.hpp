// Graph builder and validator for the streaming runtime.
//
// A Graph owns its Elements and the Channels wired between them. connect()
// joins an output port to an input port through a bounded channel;
// validate() then checks the wiring is complete (every port connected
// exactly once), names are unique (they key the stream.* metrics), and the
// graph is acyclic — and computes the topological order the Scheduler runs
// and cuts into chains: elements sorted by level(e) = 0 for sources, else
// 1 + max(level of upstream), insertion order within a level. Every channel
// points forward in that order.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "stream/element.hpp"

namespace ff::stream {

class Graph {
 public:
  /// Default per-channel capacity (blocks) when connect() is not told one.
  static constexpr std::size_t kDefaultChannelCapacity = 8;

  Graph() = default;
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Take ownership of an element; returns a handle for connect() calls.
  template <typename E>
  E* add(std::unique_ptr<E> element) {
    E* raw = element.get();
    elements_.push_back(std::move(element));
    invalidate();
    return raw;
  }

  /// Construct an element in place: g.emplace<VectorSource>("src", data, 64).
  template <typename E, typename... Args>
  E* emplace(Args&&... args) {
    return add(std::make_unique<E>(std::forward<Args>(args)...));
  }

  /// Wire `from`'s output port to `to`'s input port through a bounded
  /// channel of `capacity` blocks (>= 1). Each port connects exactly once.
  void connect(Element& from, std::size_t out_port, Element& to, std::size_t in_port,
               std::size_t capacity = kDefaultChannelCapacity);

  /// Check wiring, name uniqueness and acyclicity; build the topological
  /// order. Throws (FF_CHECK) with the offending element named on any
  /// violation. Idempotent; Scheduler::run calls it if needed.
  void validate();
  bool validated() const { return validated_; }

  std::size_t n_elements() const { return elements_.size(); }
  std::size_t n_channels() const { return channels_.size(); }

  /// Look up an element by instance name (nullptr when absent).
  Element* find(const std::string& name) const;
  /// Look up an element by instance name (FF_CHECK: present, naming the
  /// known elements in the error).
  Element& at(const std::string& name) const;

  /// The handler `elem.name` (FF_CHECK: element and handler both exist) —
  /// the runtime introspection surface: call h.read() / h.write(value) at a
  /// quiescent point (between reference-mode rounds, or before/after a
  /// run); for sample-exact mid-stream writes use Element::write_at.
  const Handler& handler(const std::string& elem, const std::string& name);

  /// The owned elements, insertion order (e.g. for handler catalogs).
  const std::vector<std::unique_ptr<Element>>& elements() const { return elements_; }

  /// Every channel closed and empty: the run is complete.
  bool finished() const;

  const std::vector<std::unique_ptr<Channel>>& channels() const { return channels_; }

  /// Elements in (level, insertion) topological order — every channel
  /// points forward in this sequence. This is the order the Scheduler runs
  /// each round and cuts into contiguous chains. Valid after validate().
  const std::vector<Element*>& topo_order() const;

  /// Install a telemetry sink on every element (nullptr = record nothing).
  void set_metrics(MetricsRegistry* metrics);

 private:
  void invalidate() {
    validated_ = false;
    order_.clear();
  }

  std::vector<std::unique_ptr<Element>> elements_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<Element*> order_;
  bool validated_ = false;
};

}  // namespace ff::stream
