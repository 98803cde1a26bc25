#include "eval/cli.hpp"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace ff::eval {

namespace cli_detail {

namespace {

/// True when strtoX consumed the whole token without error.
bool consumed(const std::string& text, const char* end) {
  return !text.empty() && errno == 0 && end == text.c_str() + text.size();
}

}  // namespace

bool parse_value(const std::string& text, std::string& out) {
  out = text;
  return true;
}

bool parse_value(const std::string& text, double& out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (!consumed(text, end)) return false;
  // Every option bound to a double is a finite physical parameter; "inf"
  // and "nan" are valid strtod spellings but never valid configurations,
  // and overflow ("1e999" -> HUGE_VAL, ERANGE) is caught by consumed().
  if (!std::isfinite(v)) return false;
  out = v;
  return true;
}

bool parse_signed(const std::string& text, long long& out) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (!consumed(text, end)) return false;
  out = v;
  return true;
}

bool parse_unsigned(const std::string& text, unsigned long long& out) {
  // strtoull silently negates "-1"; reject signs ourselves.
  if (!text.empty() && (text[0] == '-' || text[0] == '+')) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (!consumed(text, end)) return false;
  out = v;
  return true;
}

}  // namespace cli_detail

Cli::Cli(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

Cli& Cli::add_flag(const std::string& name, bool* target, const std::string& help) {
  specs_.push_back(Spec{name, help, /*is_flag=*/true, [target](const std::string&) {
                          *target = true;
                          return true;
                        }});
  return *this;
}

Cli& Cli::add_repeatable(const std::string& name, std::vector<std::string>* target,
                         const std::string& help) {
  specs_.push_back(Spec{name, help, /*is_flag=*/false, [target](const std::string& v) {
                          target->push_back(v);
                          return true;
                        }});
  return *this;
}

const Cli::Spec* Cli::find_option(const std::string& name) const {
  for (const auto& s : specs_)
    if (s.name == name) return &s;
  return nullptr;
}

bool Cli::parse(int argc, char** argv) {
  std::size_t next_positional = 0;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(usage().c_str(), stdout);
      exit_code_ = 0;
      return false;
    }
    if (arg.rfind("--", 0) == 0) {
      std::string value;
      bool has_value = false;
      const auto eq = arg.find('=');
      if (eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg = arg.substr(0, eq);
        has_value = true;
      }
      const Spec* spec = find_option(arg);
      if (!spec) {
        std::fprintf(stderr, "%s: unknown option '%s'\n\n%s", program_.c_str(),
                     arg.c_str(), usage().c_str());
        exit_code_ = 2;
        return false;
      }
      if (!spec->is_flag && !has_value) {
        if (i + 1 >= argc) {
          std::fprintf(stderr, "%s: option '%s' needs a value\n", program_.c_str(),
                       arg.c_str());
          exit_code_ = 2;
          return false;
        }
        value = argv[++i];
      }
      if (spec->is_flag && has_value) {
        std::fprintf(stderr, "%s: flag '%s' takes no value\n", program_.c_str(),
                     arg.c_str());
        exit_code_ = 2;
        return false;
      }
      if (!spec->assign(value)) {
        std::fprintf(stderr, "%s: bad value '%s' for option '%s'\n", program_.c_str(),
                     value.c_str(), arg.c_str());
        exit_code_ = 2;
        return false;
      }
      continue;
    }
    if (next_positional >= positionals_.size()) {
      std::fprintf(stderr, "%s: unexpected argument '%s'\n\n%s", program_.c_str(),
                   arg.c_str(), usage().c_str());
      exit_code_ = 2;
      return false;
    }
    const Spec& spec = positionals_[next_positional++];
    if (!spec.assign(arg)) {
      std::fprintf(stderr, "%s: bad value '%s' for argument '%s'\n", program_.c_str(),
                   arg.c_str(), spec.name.c_str());
      exit_code_ = 2;
      return false;
    }
  }
  return true;
}

std::string Cli::usage() const {
  std::ostringstream os;
  os << "Usage: " << program_ << " [options]";
  for (const auto& p : positionals_) os << " [" << p.name << "]";
  os << "\n\n  " << description_ << "\n";
  if (!positionals_.empty()) {
    os << "\nArguments:\n";
    for (const auto& p : positionals_) os << "  " << p.name << "\n      " << p.help << "\n";
  }
  os << "\nOptions:\n";
  for (const auto& s : specs_) {
    os << "  " << s.name;
    if (!s.is_flag) os << " <value>";
    os << "\n      " << s.help << "\n";
  }
  os << "  --help\n      print this message and exit\n";
  return os.str();
}

void MetricsSink::register_options(Cli& cli) {
  cli.add_option("--metrics", &path_,
                 "write telemetry (ff-metrics-v1 JSON, see docs/OBSERVABILITY.md) "
                 "to this file");
}

bool MetricsSink::write() const {
  if (!enabled()) return true;
  std::ofstream out(path_, std::ios::binary);
  if (out) out << registry_.snapshot().to_json();
  if (!out) {
    std::fprintf(stderr, "failed to write metrics to %s\n", path_.c_str());
    return false;
  }
  std::fprintf(stderr, "metrics written to %s\n", path_.c_str());
  return true;
}

void StreamCli::register_options(Cli& cli, bool with_metrics_option) {
  cli.add_option("--block-size", &block_size_,
                 "samples per stream block (output is block-size invariant; "
                 "this only trades latency against per-block overhead)");
  cli.add_option("--duration", &duration_s_, "session length in seconds");
  cli.add_option("--backpressure", &backpressure_,
                 "bounded-channel capacity in blocks (smaller = tighter "
                 "memory bound, more producer stalls)");
  cli.add_option("--threads", &threads_,
                 "throughput mode: pipeline chains, one worker thread each "
                 "(0 = FF_THREADS / hardware); reference mode is one chain "
                 "and needs 1");
  cli.add_option("--mode", &mode_,
                 "scheduler: 'reference' (one chain in deterministic rounds) "
                 "or 'throughput' (pinned pipeline chains over SPSC rings; "
                 "same output, higher rate)");
  cli.add_option("--batch-size", &batch_size_,
                 "throughput mode: blocks moved per ring transfer (amortizes "
                 "the rings' index traffic)");
  cli.add_option("--precision", &precision_,
                 "sample-path arithmetic: 'f64' (the accuracy reference) or "
                 "'f32' (the mixed-precision fast path — double the SIMD "
                 "lanes, ~-120 dB conversion noise, own checksum family)");
  cli.add_flag("--pin-cores", &pin_cores_,
               "throughput mode: pin each chain's worker to a core "
               "(graceful no-op where unsupported)");
  cli.add_option("--graph", &graph_,
                 "build the session from this graph description file "
                 "(docs/STREAMING.md) instead of the built-in topology");
  cli.add_repeatable("--set", &sets_,
                     "call a write handler before the run: elem.handler=value "
                     "(repeatable, e.g. --set fir.set_taps=(0.9,0))");
  if (with_metrics_option) sink_.register_options(cli);
}

bool parse_handler_write(const std::string& text, HandlerWrite& out) {
  const auto eq = text.find('=');
  if (eq == std::string::npos) return false;
  const std::string target = text.substr(0, eq);
  const auto dot = target.find('.');
  if (dot == std::string::npos || dot == 0 || dot + 1 == target.size()) return false;
  out.element = target.substr(0, dot);
  out.handler = target.substr(dot + 1);
  out.value = text.substr(eq + 1);
  return true;
}

std::vector<HandlerWrite> StreamCli::writes() const {
  std::vector<HandlerWrite> out;
  out.reserve(sets_.size());
  for (const std::string& s : sets_) {
    HandlerWrite w;
    if (parse_handler_write(s, w)) out.push_back(std::move(w));
  }
  return out;
}

bool StreamCli::validate() const {
  bool ok = true;
  if (block_size_ == 0) {
    std::fprintf(stderr, "--block-size must be >= 1\n");
    ok = false;
  }
  if (!std::isfinite(duration_s_) || duration_s_ <= 0.0) {
    std::fprintf(stderr, "--duration must be positive and finite\n");
    ok = false;
  }
  if (backpressure_ == 0) {
    std::fprintf(stderr, "--backpressure must be >= 1 block\n");
    ok = false;
  }
  if (mode_ != "reference" && mode_ != "throughput") {
    std::fprintf(stderr, "--mode must be 'reference' or 'throughput' (got '%s')\n",
                 mode_.c_str());
    ok = false;
  }
  if (threads_ != 1 && mode_ != "throughput") {
    std::fprintf(stderr,
                 "--threads %zu needs --mode throughput: reference mode runs the "
                 "graph as one chain on the calling thread\n",
                 threads_);
    ok = false;
  }
  if (batch_size_ == 0) {
    std::fprintf(stderr, "--batch-size must be >= 1 block\n");
    ok = false;
  }
  if (precision_ != "f64" && precision_ != "f32") {
    std::fprintf(stderr, "--precision must be 'f64' or 'f32' (got '%s')\n",
                 precision_.c_str());
    ok = false;
  }
  for (const std::string& s : sets_) {
    HandlerWrite w;
    if (!parse_handler_write(s, w)) {
      std::fprintf(stderr, "--set expects elem.handler=value, got '%s'\n", s.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace ff::eval
