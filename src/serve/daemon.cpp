#include "serve/daemon.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <iomanip>
#include <set>
#include <sstream>
#include <utility>

#include "common/check.hpp"
#include "serve/snapshot.hpp"
#include "stream/io_elements.hpp"
#include "stream/scheduler.hpp"

namespace ff::serve {

namespace {

/// Thrown out of on_round to unwind a session the daemon asked to stop.
struct SessionAborted {};

/// A control client streaming bytes without newlines is garbage, not a
/// command; cut it off before the buffer grows without bound.
constexpr std::size_t kMaxCtlLine = 1 << 16;

/// How long a queued element command may wait for a session quiescent
/// point before its client gets `err timeout`. Reference rounds tick at
/// worst every SocketSource poll_ms (~50 ms), so 2 s only fires on a
/// genuinely wedged session. The wait is serviced from the driver loop
/// (service_ctl_replies), never blocked on.
constexpr auto kCtlReplyTimeout = std::chrono::seconds(2);

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (u < 0x20) {
      // Control characters (errno/detail strings can carry tabs or
      // newlines) would make the FFERR line invalid JSON if passed raw.
      char esc[8];
      std::snprintf(esc, sizeof esc, "\\u%04x", u);
      out += esc;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

RelayDaemon::RelayDaemon(DaemonConfig cfg) : cfg_(std::move(cfg)) {
  metrics_ = cfg_.metrics != nullptr ? cfg_.metrics : &own_metrics_;
  FF_CHECK_MSG(!cfg_.graph_text.empty(), "RelayDaemon: empty graph description");
  FF_CHECK_MSG(cfg_.batch_size >= 1, "RelayDaemon: batch_size must be >= 1");
  FF_CHECK_MSG(cfg_.throughput || cfg_.threads == 1,
               "RelayDaemon: threads = " << cfg_.threads
                                         << " needs throughput mode: reference mode runs "
                                            "each session as one chain");
  spec_ = stream::parse_graph(cfg_.graph_text, cfg_.graph_source);

  // Probe build: instantiate + configure the whole graph (and apply the
  // presets) once up front, so a bad class name, parameter, or preset fails
  // at daemon startup with a source-located error, not at the first client.
  stream::Graph probe;
  const std::vector<stream::Element*> elems = stream::build_graph(
      probe, spec_, stream::ElementRegistry::builtin(), cfg_.default_capacity);
  for (const eval::HandlerWrite& w : cfg_.presets) {
    const stream::Handler& h = probe.handler(w.element, w.handler);
    FF_CHECK_MSG(h.writable(),
                 "preset " << w.element << "." << w.handler << " is not writable");
    h.write(w.value);
  }

  // Discover the listen-mode socket endpoints the daemon will own. Connect-
  // mode (dial-out) socket elements keep managing themselves per session.
  std::set<std::string> endpoints;
  if (!cfg_.control.empty())
    endpoints.insert(stream::parse_endpoint("control endpoint", cfg_.control).text());
  for (stream::Element* e : elems) {
    SocketPort port;
    if (auto* src = dynamic_cast<stream::SocketSource*>(e)) {
      if (!src->listening()) continue;
      FF_CHECK_MSG(src->endpoint().has_value(),
                   "RelayDaemon: listening SocketSource '" << src->name()
                                                           << "' has no endpoint=");
      port = SocketPort{src->name(), *src->endpoint(), /*is_source=*/true};
    } else if (auto* sink = dynamic_cast<stream::SocketSink*>(e)) {
      if (!sink->listening()) continue;
      FF_CHECK_MSG(sink->endpoint().has_value(),
                   "RelayDaemon: listening SocketSink '" << sink->name()
                                                         << "' has no endpoint=");
      port = SocketPort{sink->name(), *sink->endpoint(), /*is_source=*/false};
    } else {
      continue;
    }
    FF_CHECK_MSG(endpoints.insert(port.endpoint.text()).second,
                 "RelayDaemon: endpoint " << port.endpoint.text()
                                          << " used more than once ('" << port.element
                                          << "')");
    ports_.push_back(std::move(port));
  }
}

RelayDaemon::~RelayDaemon() {
  // Normal teardown happens at the end of run(); this only covers run()
  // unwinding on an exception with a session still alive.
  if (session_ && session_->thread.joinable()) {
    abort_session();
    session_->thread.join();
  }
}

void RelayDaemon::log(const std::string& line) const {
  if (cfg_.log)
    cfg_.log(line);
  else
    std::fprintf(stderr, "ffrelayd: %s\n", line.c_str());
}

void RelayDaemon::run() {
  start_time_ = std::chrono::steady_clock::now();
  next_snapshot_ =
      start_time_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(cfg_.snapshot_period_s));

  for (const SocketPort& p : ports_) {
    data_listeners_.push_back(stream::wire_listen(p.endpoint));
    log("listening on " + p.endpoint.text() + " (" + p.element + ")");
  }
  if (!cfg_.control.empty()) {
    control_listener_ =
        stream::wire_listen(stream::parse_endpoint("control endpoint", cfg_.control));
    log("control on " + cfg_.control);
  }

  while (true) {
    reap_session();
    // Break even with a session in flight: the post-loop block aborts it
    // (shutting down its data connections unblocks socket I/O) and joins,
    // so request_stop()/SIGINT never hangs on a quiet peer.
    if (stopping()) break;
    // --once / --max-sessions: once the quota of sessions has been started
    // and the last one reaped, there is nothing left to serve.
    if (!session_ && cfg_.max_sessions != 0 && sessions_started_ >= cfg_.max_sessions)
      break;
    maybe_start_session();
    poll_once(/*timeout_ms=*/50);
    service_ctl_replies();
    maybe_periodic_snapshot();
  }

  if (session_) {
    abort_session();
    if (session_->thread.joinable()) session_->thread.join();
    reap_session();
  }
  flush_ctl_queue("no-session", "daemon shutting down");
  // Deliver the flushed answers before dropping the control clients, so a
  // command caught by the shutdown gets `err no-session`, not silence.
  service_ctl_replies();
  write_snapshot("shutdown");

  ctl_clients_.clear();
  pending_.clear();
  control_listener_.reset();
  data_listeners_.clear();
  if (!cfg_.control.empty()) {
    const stream::WireEndpoint ep =
        stream::parse_endpoint("control endpoint", cfg_.control);
    if (ep.kind == stream::WireEndpoint::Kind::kUnix) ::unlink(ep.path.c_str());
  }
  for (const SocketPort& p : ports_)
    if (p.endpoint.kind == stream::WireEndpoint::Kind::kUnix)
      ::unlink(p.endpoint.path.c_str());
  log("shutdown complete: " + stats_line());
}

void RelayDaemon::maybe_start_session() {
  if (session_ || stopping()) return;
  if (cfg_.max_sessions != 0 && sessions_started_ >= cfg_.max_sessions) return;
  for (const SocketPort& p : ports_)
    if (pending_.find(p.element) == pending_.end()) return;

  auto s = std::make_unique<Session>();
  s->id = sessions_started_ + 1;
  stream::build_graph(s->graph, spec_, stream::ElementRegistry::builtin(),
                      cfg_.default_capacity);
  // Presets were validated against the probe graph in the constructor, so
  // these writes cannot fail on a well-formed session graph.
  for (const eval::HandlerWrite& w : cfg_.presets)
    s->graph.handler(w.element, w.handler).write(w.value);
  for (const SocketPort& p : ports_) {
    auto it = pending_.find(p.element);
    stream::OwnedFd conn = std::move(it->second.fd);
    pending_.erase(it);
    // Raw fd recorded for abort_session(): the element keeps the fd open
    // until the graph dies, which is strictly after the thread join, so a
    // later shutdown(2) on it can never hit a recycled descriptor.
    s->data_fds.push_back(conn.get());
    stream::Element& e = s->graph.at(p.element);
    if (p.is_source) {
      auto* src = dynamic_cast<stream::SocketSource*>(&e);
      FF_CHECK_MSG(src != nullptr, "element '" << p.element << "' is not a SocketSource");
      src->adopt_connection(std::move(conn));
    } else {
      auto* sink = dynamic_cast<stream::SocketSink*>(&e);
      FF_CHECK_MSG(sink != nullptr, "element '" << p.element << "' is not a SocketSink");
      sink->adopt_connection(std::move(conn));
    }
  }

  ++sessions_started_;
  metrics_->add("serve.sessions_started");
  metrics_->set("serve.session_active", 1.0);
  log("session " + std::to_string(s->id) + " started (mode=" +
      (cfg_.throughput ? "throughput" : "reference") + ")");
  Session* raw = s.get();
  session_ = std::move(s);
  session_->thread = std::thread([this, raw] { session_body(*raw); });
}

void RelayDaemon::session_body(Session& s) {
  try {
    stream::SchedulerConfig sc;
    sc.threads = cfg_.threads;
    sc.metrics = metrics_;
    sc.batch_size = cfg_.batch_size;
    sc.mode = cfg_.throughput ? stream::SchedulerMode::kThroughput
                              : stream::SchedulerMode::kReference;
    // No watchdog: a daemon session idling on a quiet peer is normal.
    sc.watchdog_ms = 0.0;
    if (!cfg_.throughput) {
      sc.on_round = [this, &s](std::uint64_t) {
        if (s.abort.load(std::memory_order_relaxed)) throw SessionAborted{};
        drain_ctl_queue(s.graph);
      };
    }
    stream::Scheduler sched(s.graph, std::move(sc));
    sched.run();
    // A throughput-mode abort unwinds by EOF (abort_session shuts the data
    // connections down), which can look like a clean completion here.
    if (s.abort.load(std::memory_order_relaxed)) s.error = "aborted by shutdown";
  } catch (const SessionAborted&) {
    s.error = "aborted by shutdown";
  } catch (const std::exception& e) {
    s.error = s.abort.load(std::memory_order_relaxed) ? "aborted by shutdown"
                                                      : std::string(e.what());
  }
  s.done.store(true, std::memory_order_release);
}

void RelayDaemon::reap_session() {
  if (!session_ || !session_->done.load(std::memory_order_acquire)) return;
  if (session_->thread.joinable()) session_->thread.join();
  if (session_->error.empty()) {
    ++sessions_completed_;
    metrics_->add("serve.sessions_completed");
    log("session " + std::to_string(session_->id) + " completed");
  } else {
    ++sessions_aborted_;
    metrics_->add("serve.sessions_aborted");
    log("session " + std::to_string(session_->id) + " failed: " + session_->error);
  }
  metrics_->set("serve.session_active", 0.0);
  flush_ctl_queue("no-session", "session ended before the command ran");
  session_.reset();
  write_snapshot("session-end");
}

void RelayDaemon::abort_session() {
  if (!session_ || session_->abort.exchange(true)) return;
  // Reference mode notices the flag at the next round; blocked socket I/O
  // (both modes) is unblocked by shutting the connections down, which the
  // elements observe as EOF / send failure.
  for (const int fd : session_->data_fds) ::shutdown(fd, SHUT_RDWR);
  log("session " + std::to_string(session_->id) + " abort requested");
}

void RelayDaemon::poll_once(int timeout_ms) {
  struct Entry {
    int fd;
    enum { kCtlListener, kCtlClient, kPendingPeer, kDataListener } type;
    std::size_t index;
    std::string elem;  // kPendingPeer: the pending_ key
  };
  std::vector<Entry> entries;
  if (control_listener_.valid())
    entries.push_back({control_listener_.get(), Entry::kCtlListener, 0, {}});
  for (std::size_t i = 0; i < ctl_clients_.size(); ++i)
    entries.push_back({ctl_clients_[i].fd.get(), Entry::kCtlClient, i, {}});
  // Pending peers are watched for hangup only (events = 0: POLLHUP/POLLERR
  // are always reported), so a peer that dies before its session starts
  // releases the endpoint instead of claiming it forever. Ordered before
  // the data listeners so a reconnect in the same poll round is admitted.
  for (const auto& [elem, peer] : pending_)
    if (!peer.eof_ok) entries.push_back({peer.fd.get(), Entry::kPendingPeer, 0, elem});
  for (std::size_t i = 0; i < data_listeners_.size(); ++i)
    entries.push_back({data_listeners_[i].get(), Entry::kDataListener, i, {}});

  std::vector<pollfd> fds(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i)
    fds[i] = pollfd{entries[i].fd,
                    static_cast<short>(entries[i].type == Entry::kPendingPeer ? 0
                                                                              : POLLIN),
                    0};
  // No sockets at all (no control plane, no socket elements): plain sleep
  // so back-to-back sessions still pace the loop.
  const int rc = ::poll(fds.empty() ? nullptr : fds.data(),
                        static_cast<nfds_t>(fds.size()), timeout_ms);
  if (rc <= 0) return;  // timeout or EINTR: the driver loop comes round again

  std::vector<std::size_t> drop;  // ctl_clients_ indices to remove
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if ((fds[i].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    switch (entries[i].type) {
      case Entry::kCtlListener:
        ctl_clients_.emplace_back();
        ctl_clients_.back().fd = stream::wire_accept(control_listener_.get());
        break;
      case Entry::kCtlClient: {
        char buf[4096];
        const ssize_t n = ::recv(entries[i].fd, buf, sizeof buf, 0);
        if (n <= 0) {
          drop.push_back(entries[i].index);
          break;
        }
        CtlClient& client = ctl_clients_[entries[i].index];
        client.lines.append(buf, static_cast<std::size_t>(n));
        if (client.lines.pending() > kMaxCtlLine) {
          drop.push_back(entries[i].index);
          break;
        }
        if (!pump_ctl_client(client)) drop.push_back(entries[i].index);
        break;
      }
      case Entry::kPendingPeer: {
        auto it = pending_.find(entries[i].elem);
        if (it == pending_.end()) break;
        char probe = 0;
        const ssize_t n = ::recv(it->second.fd.get(), &probe, 1,
                                 MSG_PEEK | MSG_DONTWAIT);
        if (n > 0) {
          // The peer delivered bytes and hung up: the buffered stream is
          // still a complete session input, so the claim stands (and the
          // fd leaves the poll set — its state can no longer change).
          it->second.eof_ok = true;
        } else if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) {
          log("waiting peer on " + entries[i].elem +
              " disconnected before session start; endpoint released");
          pending_.erase(it);
        }
        break;
      }
      case Entry::kDataListener:
        accept_data_client(entries[i].index);
        break;
    }
  }
  for (auto it = drop.rbegin(); it != drop.rend(); ++it)
    ctl_clients_.erase(ctl_clients_.begin() + static_cast<std::ptrdiff_t>(*it));
}

void RelayDaemon::accept_data_client(std::size_t port_index) {
  stream::OwnedFd conn = stream::wire_accept(data_listeners_[port_index].get());
  const SocketPort& port = ports_[port_index];

  std::string reject;
  if (stopping())
    reject = "daemon shutting down";
  else if (session_)
    reject = "a relay session is already in progress";
  else if (pending_.find(port.element) != pending_.end())
    reject = "endpoint already claimed by a waiting peer";
  if (!reject.empty()) {
    ++admission_rejected_;
    metrics_->add("serve.admission_rejected");
    log("rejected peer on " + port.endpoint.text() + ": " + reject);
    try {
      stream::wire_send_text(
          conn.get(), "FFERR {\"code\":\"busy\",\"endpoint\":\"" +
                          json_escape(port.endpoint.text()) + "\",\"element\":\"" +
                          json_escape(port.element) + "\",\"detail\":\"" +
                          json_escape(reject) + "\"}\n");
    } catch (const std::exception&) {
      // Peer already hung up; the rejection line is best-effort.
    }
    return;
  }
  pending_[port.element] = PendingPeer{std::move(conn)};
  log("peer connected on " + port.endpoint.text() + " (" + port.element + ")");
}

std::string RelayDaemon::handle_control_line(CtlClient& client,
                                             const std::string& line) {
  if (line.empty()) return "";
  metrics_->add("serve.control.commands");

  ControlCommand cmd;
  std::string error;
  if (!parse_control_line(line, cmd, error)) return err_response("bad-command", error);

  using Verb = ControlCommand::Verb;
  switch (cmd.verb) {
    case Verb::kPing:
      return ok_response("pong");
    case Verb::kStats:
      return ok_response(stats_line());
    case Verb::kElements:
      return ok_response(elements_line());
    case Verb::kShutdown:
      stop_.store(true, std::memory_order_relaxed);
      return ok_response("shutting-down");
    case Verb::kSnapshot:
      if (cfg_.snapshot_path.empty())
        return err_response("bad-command", "no snapshot path configured (--snapshot)");
      try {
        write_snapshot_atomic(*metrics_, cfg_.snapshot_path);
        metrics_->add("serve.snapshots_written");
        return ok_response(cfg_.snapshot_path);
      } catch (const std::exception& e) {
        return err_response("io-error", e.what());
      }
    case Verb::kRead:
    case Verb::kWrite:
      break;  // queued below
  }

  if (!session_) return err_response("no-session", "no relay session is running");
  if (cfg_.throughput)
    return err_response("busy",
                        "throughput sessions have no quiescent point; element "
                        "commands need --mode reference");
  auto req = std::make_unique<CtlRequest>();
  req->cmd = cmd;
  client.pending = req->reply.get_future();
  client.pending_deadline = std::chrono::steady_clock::now() + kCtlReplyTimeout;
  {
    std::lock_guard<std::mutex> lock(ctl_mu_);
    ctl_queue_.push_back(std::move(req));
  }
  return "";  // answered by service_ctl_replies() once the session executes it
}

void RelayDaemon::send_ctl_response(CtlClient& client, const std::string& resp) {
  if (resp.rfind("err ", 0) == 0) metrics_->add("serve.control.errors");
  stream::wire_send_text(client.fd.get(), resp);
}

bool RelayDaemon::pump_ctl_client(CtlClient& client) {
  try {
    std::string line;
    while (!client.pending.valid() && client.lines.next_line(line)) {
      const std::string resp = handle_control_line(client, line);
      if (!resp.empty()) send_ctl_response(client, resp);
    }
  } catch (const std::exception&) {
    return false;  // response write failed: the peer is gone
  }
  return true;
}

void RelayDaemon::service_ctl_replies() {
  std::vector<std::size_t> drop;
  for (std::size_t i = 0; i < ctl_clients_.size(); ++i) {
    CtlClient& client = ctl_clients_[i];
    if (!client.pending.valid()) continue;
    std::string resp;
    if (client.pending.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      resp = client.pending.get();
      client.pending = {};
    } else if (std::chrono::steady_clock::now() >= client.pending_deadline) {
      // The request stays queued; the session (or the reap path) settles
      // the abandoned promise later, harmlessly — only this response gives
      // up on waiting.
      client.pending = {};
      resp = err_response("timeout", "session did not reach a quiescent point");
    } else {
      continue;
    }
    bool alive = true;
    try {
      send_ctl_response(client, resp);
    } catch (const std::exception&) {
      alive = false;
    }
    // The reply unblocks this client's line queue; later commands may have
    // accumulated behind it.
    if (alive) alive = pump_ctl_client(client);
    if (!alive) drop.push_back(i);
  }
  for (auto it = drop.rbegin(); it != drop.rend(); ++it)
    ctl_clients_.erase(ctl_clients_.begin() + static_cast<std::ptrdiff_t>(*it));
}

std::string RelayDaemon::exec_element_command(stream::Graph& g,
                                              const ControlCommand& cmd) {
  stream::Element* e = g.find(cmd.element);
  if (e == nullptr)
    return err_response("no-element", "no element named '" + cmd.element + "'");
  const stream::Handler* h = e->handlers().find(cmd.handler);
  if (h == nullptr)
    return err_response("no-handler",
                        cmd.element + " has no handler '" + cmd.handler + "'");
  try {
    if (cmd.verb == ControlCommand::Verb::kRead) {
      if (!h->readable())
        return err_response("not-readable", cmd.element + "." + cmd.handler);
      return ok_response(h->read());
    }
    if (!h->writable())
      return err_response("not-writable", cmd.element + "." + cmd.handler);
    h->write(cmd.value);
    return ok_response();
  } catch (const std::exception& e2) {
    return err_response("bad-value", e2.what());
  }
}

void RelayDaemon::drain_ctl_queue(stream::Graph& g) {
  for (;;) {
    std::unique_ptr<CtlRequest> req;
    {
      std::lock_guard<std::mutex> lock(ctl_mu_);
      if (ctl_queue_.empty()) return;
      req = std::move(ctl_queue_.front());
      ctl_queue_.pop_front();
    }
    req->reply.set_value(exec_element_command(g, req->cmd));
  }
}

void RelayDaemon::flush_ctl_queue(const std::string& code, const std::string& detail) {
  for (;;) {
    std::unique_ptr<CtlRequest> req;
    {
      std::lock_guard<std::mutex> lock(ctl_mu_);
      if (ctl_queue_.empty()) return;
      req = std::move(ctl_queue_.front());
      ctl_queue_.pop_front();
    }
    req->reply.set_value(err_response(code, detail));
  }
}

std::string RelayDaemon::stats_line() const {
  const double uptime_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_time_)
          .count();
  std::ostringstream os;
  os << "sessions_started=" << sessions_started_
     << " sessions_completed=" << sessions_completed_
     << " sessions_aborted=" << sessions_aborted_
     << " rejected=" << admission_rejected_ << " active=" << (session_ ? 1 : 0)
     << " pending=" << pending_.size() << " uptime_s=" << std::fixed
     << std::setprecision(1) << uptime_s;
  return os.str();
}

std::string RelayDaemon::elements_line() const {
  std::string out;
  for (const stream::ElementDecl& d : spec_.decls) {
    if (!out.empty()) out += ',';
    out += d.name + ":" + d.class_name;
  }
  return out;
}

void RelayDaemon::write_snapshot(const char* reason) {
  if (cfg_.snapshot_path.empty()) return;
  try {
    write_snapshot_atomic(*metrics_, cfg_.snapshot_path);
    metrics_->add("serve.snapshots_written");
  } catch (const std::exception& e) {
    // A broken snapshot path must not take the relay down with it.
    log(std::string("snapshot (") + reason + ") failed: " + e.what());
  }
}

void RelayDaemon::maybe_periodic_snapshot() {
  if (cfg_.snapshot_path.empty() || cfg_.snapshot_period_s <= 0.0) return;
  const auto now = std::chrono::steady_clock::now();
  if (now < next_snapshot_) return;
  write_snapshot("periodic");
  next_snapshot_ =
      now + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                std::chrono::duration<double>(cfg_.snapshot_period_s));
}

}  // namespace ff::serve
