// Shared command-line surface for the examples and bench binaries.
//
// Before this existed every example hand-rolled its own argv loop (atoi on
// positionals, ad-hoc flag matching, no --help). Cli centralizes that:
// declare options bound to variables, call parse(), and get consistent
// `--name value` / `--name=value` handling plus generated usage text.
//
// Two higher-level helpers cover the recurring shapes:
//   * MetricsSink     — the `--metrics out.json` convention: owns a
//     MetricsRegistry, hands out a pointer only when the user asked for
//     metrics (so the default path stays the telemetry no-op), and writes
//     the ff-metrics-v1 JSON on demand.
//   * StreamCli       — the streaming-runtime knobs (block size, duration,
//     backpressure, scheduler mode, threads, --graph, repeatable --set)
//     plus a MetricsSink, validated as one unit.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/telemetry.hpp"

namespace ff::eval {

namespace cli_detail {

bool parse_value(const std::string& text, std::string& out);
bool parse_value(const std::string& text, double& out);
bool parse_signed(const std::string& text, long long& out);
bool parse_unsigned(const std::string& text, unsigned long long& out);

/// Integral parse with range check, shared by every int-ish target type
/// (keeps std::size_t and std::uint64_t from needing colliding overloads
/// on LP64, where they are the same type).
template <typename T>
  requires std::is_integral_v<T> && (!std::is_same_v<T, bool>)
bool parse_value(const std::string& text, T& out) {
  if constexpr (std::is_signed_v<T>) {
    long long v = 0;
    if (!parse_signed(text, v)) return false;
    if (v < static_cast<long long>(std::numeric_limits<T>::min()) ||
        v > static_cast<long long>(std::numeric_limits<T>::max()))
      return false;
    out = static_cast<T>(v);
  } else {
    unsigned long long v = 0;
    if (!parse_unsigned(text, v)) return false;
    if (v > static_cast<unsigned long long>(std::numeric_limits<T>::max())) return false;
    out = static_cast<T>(v);
  }
  return true;
}

}  // namespace cli_detail

/// Declarative argv parser. Options are matched as `--name value` or
/// `--name=value`; flags take no value; positionals fill in declaration
/// order. `--help` is built in.
class Cli {
 public:
  Cli(std::string program, std::string description);

  /// Bind `--name <value>` to *target (which also supplies the default
  /// shown in usage). Any type with a cli_detail::parse_value overload.
  template <typename T>
  Cli& add_option(const std::string& name, T* target, const std::string& help) {
    specs_.push_back(Spec{
        name, help, /*is_flag=*/false,
        [target](const std::string& v) { return cli_detail::parse_value(v, *target); }});
    return *this;
  }

  /// Bind `--name` (no value) to *target = true.
  Cli& add_flag(const std::string& name, bool* target, const std::string& help);

  /// Bind `--name value`, repeatable: every occurrence appends to *target
  /// (`--set a.b=1 --set c.d=2` collects both, in argv order).
  Cli& add_repeatable(const std::string& name, std::vector<std::string>* target,
                      const std::string& help);

  /// Bind the next positional argument to *target. Positionals are
  /// optional: trailing ones keep their defaults when omitted.
  template <typename T>
  Cli& add_positional(const std::string& name, T* target, const std::string& help) {
    positionals_.push_back(Spec{
        name, help, /*is_flag=*/false,
        [target](const std::string& v) { return cli_detail::parse_value(v, *target); }});
    return *this;
  }

  /// Parse argv. Returns true when the program should proceed; false when
  /// it should exit immediately with exit_code() (after `--help`, or a
  /// parse error that has already been reported on stderr).
  bool parse(int argc, char** argv);

  int exit_code() const { return exit_code_; }

  std::string usage() const;

 private:
  struct Spec {
    std::string name;
    std::string help;
    bool is_flag = false;
    std::function<bool(const std::string&)> assign;
  };

  const Spec* find_option(const std::string& name) const;

  std::string program_;
  std::string description_;
  std::vector<Spec> specs_;
  std::vector<Spec> positionals_;
  int exit_code_ = 0;
};

/// The `--metrics out.json` convention: an owned registry that subsystems
/// see only when the user asked for telemetry, so the default run keeps the
/// zero-overhead null-registry path.
class MetricsSink {
 public:
  /// Adds `--metrics` to the Cli.
  void register_options(Cli& cli);

  const std::string& path() const { return path_; }
  bool enabled() const { return !path_.empty(); }

  /// The injection pointer: the registry when --metrics was given, else
  /// nullptr (subsystems then skip all recording).
  MetricsRegistry* registry() { return enabled() ? &registry_ : nullptr; }

  /// Write the snapshot as ff-metrics-v1 JSON to path(). No-op (returns
  /// true) when metrics were not requested; reports failures on stderr.
  bool write() const;

 private:
  std::string path_;
  MetricsRegistry registry_;
};

/// One parsed `--set elem.handler=value` request: call write handler
/// `handler` on element `elem` with `value` before the run starts. Plain
/// strings — StreamCli stays ff_stream-agnostic; the host binary resolves
/// them through Graph::handler.
struct HandlerWrite {
  std::string element;
  std::string handler;
  std::string value;
};

/// Parse one `elem.handler=value` request (first '.', first '='); false on
/// a malformed string. Shared by StreamCli's --set and ffrelayd's presets.
bool parse_handler_write(const std::string& text, HandlerWrite& out);

/// The streaming-runtime surface shared by examples/streaming_relay and
/// bench_runtime's stream_relay kernel: how the session is blocked
/// (--block-size), how long it runs (--duration), how deep the bounded
/// queues are (--backpressure), which scheduler executes it (--mode,
/// --batch-size, --pin-cores), worker threads, the metrics sink, and the
/// declarative surface (--graph file.ff, repeatable --set elem.handler=v).
///
/// The mode is kept as a validated string ("reference" | "throughput")
/// rather than a stream::SchedulerMode so ff_eval stays independent of
/// ff_stream; callers map it with is_throughput(). --graph/--set follow the
/// same rule: StreamCli validates the shape, the host builds the graph.
class StreamCli {
 public:
  /// Adds --block-size, --duration, --backpressure, --threads, --mode,
  /// --batch-size, --pin-cores, --graph, --set, --metrics. Hosts that
  /// already own a --metrics option (bench_runtime) pass
  /// with_metrics_option = false to keep the option name unambiguous.
  void register_options(Cli& cli, bool with_metrics_option = true);

  /// Range-check the parsed values (block size, queue capacity and batch
  /// size >= 1, duration positive and finite, mode a known name, threads
  /// other than 1 only with mode throughput, every --set of the form
  /// elem.handler=value). Reports violations on stderr;
  /// callers exit non-zero when this returns false.
  bool validate() const;

  std::size_t block_size() const { return block_size_; }
  double duration_s() const { return duration_s_; }
  /// Bounded-channel capacity in blocks (the backpressure depth).
  std::size_t backpressure() const { return backpressure_; }
  /// Throughput-mode pipeline chains (0 = auto); 1 in reference mode.
  std::size_t threads() const { return threads_; }

  /// Scheduler selection ("reference" | "throughput", validated).
  const std::string& mode() const { return mode_; }
  bool is_throughput() const { return mode_ == "throughput"; }

  /// Arithmetic precision of the session's sample paths ("f64" | "f32",
  /// validated). Hosts map it onto the `precision=` config of the elements
  /// they build (pipeline, channels, canceller) — same rule as --mode:
  /// StreamCli validates the name, the host applies it.
  const std::string& precision() const { return precision_; }
  bool is_f32() const { return precision_ == "f32"; }
  /// Throughput mode: blocks per ring transfer.
  std::size_t batch_size() const { return batch_size_; }
  /// Throughput mode: pin chain workers to cores (no-op where unsupported).
  bool pin_cores() const { return pin_cores_; }

  /// Graph description file to build the session from ("" = the host's
  /// hand-wired default topology).
  const std::string& graph() const { return graph_; }
  /// The raw `--set` arguments, argv order.
  const std::vector<std::string>& sets() const { return sets_; }
  /// The `--set` arguments parsed as elem.handler=value triples (validate()
  /// has already rejected malformed ones).
  std::vector<HandlerWrite> writes() const;

  MetricsSink& metrics_sink() { return sink_; }
  MetricsRegistry* metrics() { return sink_.registry(); }
  bool write_metrics() const { return sink_.write(); }

 private:
  std::size_t block_size_ = 256;
  double duration_s_ = 5e-3;
  std::size_t backpressure_ = 8;
  std::size_t threads_ = 1;
  std::string mode_ = "reference";
  std::string precision_ = "f64";
  std::size_t batch_size_ = 8;
  bool pin_cores_ = false;
  std::string graph_;
  std::vector<std::string> sets_;
  MetricsSink sink_;
};

}  // namespace ff::eval
