#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "bench.hpp"

namespace ffbench {

namespace {
constexpr int kLaneShift = 40;
constexpr std::int64_t kIndexMask = (std::int64_t{1} << kLaneShift) - 1;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

std::uint32_t Tracer::name(const std::string& n) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < names_.size(); ++i)
    if (names_[i] == n) return static_cast<std::uint32_t>(i);
  names_.push_back(n);
  return static_cast<std::uint32_t>(names_.size() - 1);
}

Tracer::Lane& Tracer::lane() {
  const std::lock_guard<std::mutex> lock(mu_);
  lanes_.emplace_back(*this, static_cast<std::uint32_t>(lanes_.size()));
  return lanes_.back();
}

Tracer::SpanId Tracer::Lane::begin(std::uint32_t name, std::int64_t request,
                                   SpanId parent) {
  if (!tracer_->enabled_) return kNoSpan;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = tracer_->rel_ns(Clock::now());
  spans_.push_back(s);
  return (static_cast<SpanId>(index_) << kLaneShift) |
         static_cast<SpanId>(spans_.size() - 1);
}

void Tracer::Lane::end(SpanId id) {
  if (id == kNoSpan) return;
  spans_[static_cast<std::size_t>(id & kIndexMask)].end_ns =
      tracer_->rel_ns(Clock::now());
}

Tracer::SpanId Tracer::Lane::record(std::uint32_t name, Clock::time_point start,
                                    Clock::time_point end, std::int64_t request,
                                    SpanId parent) {
  if (!tracer_->enabled_) return kNoSpan;
  Span s;
  s.name = name;
  s.request = request;
  s.parent = parent;
  s.start_ns = tracer_->rel_ns(start);
  s.end_ns = tracer_->rel_ns(end);
  spans_.push_back(s);
  return (static_cast<SpanId>(index_) << kLaneShift) |
         static_cast<SpanId>(spans_.size() - 1);
}

std::size_t Tracer::span_count() const {
  std::size_t n = 0;
  for (const Lane& l : lanes_) n += l.spans_.size();
  return n;
}

std::vector<double> Tracer::durations_us(const std::string& n) const {
  std::vector<double> out;
  std::uint32_t id = 0;
  for (; id < names_.size(); ++id)
    if (names_[id] == n) break;
  if (id == names_.size()) return out;
  for (const Lane& l : lanes_)
    for (const Span& s : l.spans_)
      if (s.name == id) out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
  return out;
}

std::vector<double> Tracer::self_times_ns() const {
  // Flatten, then subtract from each span the union of its children's
  // intervals (clipped to the parent), so nested or overlapping children
  // are not double-counted.
  std::vector<std::size_t> lane_base(lanes_.size(), 0);
  std::size_t total = 0;
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    lane_base[i] = total;
    total += lanes_[i].spans_.size();
  }
  std::vector<double> self(total, 0.0);
  std::unordered_map<std::size_t, std::vector<std::pair<std::int64_t, std::int64_t>>> kids;
  for (std::size_t li = 0; li < lanes_.size(); ++li) {
    const auto& spans = lanes_[li].spans_;
    for (std::size_t k = 0; k < spans.size(); ++k) {
      const Span& s = spans[k];
      self[lane_base[li] + k] = static_cast<double>(s.end_ns - s.start_ns);
      if (s.parent == kNoSpan) continue;
      const auto pl = static_cast<std::size_t>(s.parent >> kLaneShift);
      const auto pi = static_cast<std::size_t>(s.parent & kIndexMask);
      if (pl >= lanes_.size()) continue;
      kids[lane_base[pl] + pi].emplace_back(s.start_ns, s.end_ns);
    }
  }
  for (auto& [flat, iv] : kids) {
    std::size_t li = 0;
    while (li + 1 < lanes_.size() && lane_base[li + 1] <= flat) ++li;
    const Span& p = lanes_[li].spans_[flat - lane_base[li]];
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_s = 0, cur_e = -1;
    for (auto [a, b] : iv) {
      a = std::max(a, p.start_ns);
      b = std::min(b, p.end_ns);
      if (b <= a) continue;
      if (a > cur_e) {
        if (cur_e > cur_s) covered += cur_e - cur_s;
        cur_s = a;
        cur_e = b;
      } else {
        cur_e = std::max(cur_e, b);
      }
    }
    if (cur_e > cur_s) covered += cur_e - cur_s;
    self[flat] -= static_cast<double>(covered);
  }
  return self;
}

void Tracer::write_csv(const std::string& path, const std::string& context_json) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "# " << context_json << "\n";
  out << "lane,id,parent,name,request,start_us,end_us,self_us\n";
  const std::vector<double> self = self_times_ns();
  std::size_t flat = 0;
  char line[256];
  for (const Lane& l : lanes_) {
    for (std::size_t k = 0; k < l.spans_.size(); ++k, ++flat) {
      const Span& s = l.spans_[k];
      const SpanId id = (static_cast<SpanId>(l.index_) << kLaneShift) |
                        static_cast<SpanId>(k);
      std::snprintf(line, sizeof line, "%u,%lld,%lld,%s,%lld,%.3f,%.3f,%.3f\n",
                    l.index_, static_cast<long long>(id),
                    static_cast<long long>(s.parent), names_[s.name].c_str(),
                    static_cast<long long>(s.request), s.start_ns * 1e-3,
                    s.end_ns * 1e-3, self[flat] * 1e-3);
      out << line;
    }
  }
  if (!out.flush()) throw std::runtime_error("short write on trace file " + path);
}

// ------------------------------------------------------------- statistics

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t idx =
      rank < 1.0 ? 0 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[idx];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double windowed_quantile(const std::vector<double>& v, std::size_t skip,
                         std::size_t window, double q, double across) {
  skip = std::min(skip, v.size() / 2);
  window = std::max<std::size_t>(window, 1);
  std::vector<double> per_window;
  for (std::size_t b = skip; b < v.size(); b += window) {
    const std::size_t e = std::min(v.size(), b + window);
    if (e - b < window && !per_window.empty()) break;
    per_window.push_back(quantile(std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(b),
                                                      v.begin() + static_cast<std::ptrdiff_t>(e)),
                                  q));
  }
  return quantile(std::move(per_window), across);
}

bool setup_done(const Options& opt, const std::vector<double>& reps) {
  if (opt.tiny) return reps.size() >= 2;
  double spent = 0.0;
  for (const double s : reps) spent += s;
  return reps.size() >= static_cast<std::size_t>(kSetupReps) && spent >= kSetupSeconds;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives execve, so under
  // a launcher it reports the launcher's peak whenever that is larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

std::uint64_t hash_samples(ff::CSpan s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const ff::Complex& c : s) {
    std::uint64_t w[2];
    std::memcpy(w, &c, sizeof w);
    h = (h ^ w[0]) * 0x100000001B3ULL;
    h = (h ^ w[1]) * 0x100000001B3ULL;
  }
  return h;
}

}  // namespace ffbench
