#include "stream/element.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace ff::stream {

Element::Element(std::string name, std::size_t n_inputs, std::size_t n_outputs)
    : name_(std::move(name)), inputs_(n_inputs, nullptr), outputs_(n_outputs, nullptr) {
  FF_CHECK_MSG(!name_.empty(), "stream elements need a non-empty name");
}

void Element::add_handlers(HandlerRegistry& handlers) {
  handlers.add_read("class", [this] { return std::string(class_name()); });
  handlers.add_read("stalls", [this] { return std::to_string(stalls()); });
}

const HandlerRegistry& Element::handlers() {
  if (!handlers_built_) {
    add_handlers(handler_registry_);
    handlers_built_ = true;
  }
  return handler_registry_;
}

std::string Element::call_read(const std::string& handler) {
  const Handler* h = handlers().find(handler);
  FF_CHECK_MSG(h != nullptr, name_ << " (" << class_name() << ") has no handler '"
                                   << handler << "'");
  FF_CHECK_MSG(h->readable(), name_ << "." << handler << " is not readable");
  return h->read();
}

void Element::call_write(const std::string& handler, const std::string& value) {
  const Handler* h = handlers().find(handler);
  FF_CHECK_MSG(h != nullptr, name_ << " (" << class_name() << ") has no handler '"
                                   << handler << "'");
  FF_CHECK_MSG(h->writable(), name_ << "." << handler << " is not writable");
  h->write(value);
}

void Element::write_at(std::uint64_t pos, const std::string& handler,
                       const std::string& value) {
  FF_CHECK_MSG(supports_positioned_writes(),
               name_ << " (" << class_name()
                     << ") does not support positioned writes; use call_write at "
                        "a quiescent point instead");
  const Handler* h = handlers().find(handler);
  FF_CHECK_MSG(h != nullptr && h->writable(),
               name_ << " has no write handler '" << handler << "'");
  // Sorted by position, FIFO among equal positions (stable insertion).
  auto it = std::upper_bound(
      writes_.begin(), writes_.end(), pos,
      [](std::uint64_t p, const PendingWrite& w) { return p < w.pos; });
  writes_.insert(it, PendingWrite{pos, handler, value});
}

void Element::set_port_counts(std::size_t n_inputs, std::size_t n_outputs) {
  for (const Channel* ch : inputs_)
    FF_CHECK_MSG(ch == nullptr, name_ << ": port counts can only change before wiring");
  for (const Channel* ch : outputs_)
    FF_CHECK_MSG(ch == nullptr, name_ << ": port counts can only change before wiring");
  inputs_.assign(n_inputs, nullptr);
  outputs_.assign(n_outputs, nullptr);
}

Block Element::pop(std::size_t port) {
  Channel& ch = *inputs_[port];
  FF_CHECK_MSG(!ch.fifo.empty(), "pop on empty input " << port << " of " << name_);
  Block b = std::move(ch.fifo.front());
  ch.fifo.pop_front();
  return b;
}

void Element::emit(std::size_t port, Block&& block) {
  Channel& ch = *outputs_[port];
  FF_CHECK_MSG(!ch.closed, name_ << " emitted on closed output " << port);
  FF_CHECK_MSG(!ch.full(), name_ << " emitted on full output " << port
                                 << " (missing out_ready check)");
  if (metrics_) {
    metrics_->add(m_blocks_);
    metrics_->add(m_samples_, block.samples.size());
  }
  ch.fifo.push_back(std::move(block));
  ++ch.blocks_total;
  if (ch.fifo.size() > ch.depth_peak) ch.depth_peak = ch.fifo.size();
}

void Element::close_outputs() {
  for (Channel* ch : outputs_) ch->closed = true;
}

bool Element::outputs_closed() const {
  for (const Channel* ch : outputs_)
    if (!ch->closed) return false;
  return true;
}

void Element::note_stall() {
  ++stalls_;
  if (metrics_) metrics_->add(m_stalls_);
}

void Element::note_consumed(const Block& block) {
  if (!metrics_) return;
  metrics_->add(m_blocks_);
  metrics_->add(m_samples_, block.samples.size());
}

void Element::attach_input(std::size_t port, Channel* ch) {
  FF_CHECK_MSG(port < inputs_.size(),
               name_ << " has no input port " << port << " (" << inputs_.size() << " ports)");
  FF_CHECK_MSG(inputs_[port] == nullptr,
               "input " << port << " of " << name_ << " is already connected");
  inputs_[port] = ch;
}

void Element::attach_output(std::size_t port, Channel* ch) {
  FF_CHECK_MSG(port < outputs_.size(),
               name_ << " has no output port " << port << " (" << outputs_.size() << " ports)");
  FF_CHECK_MSG(outputs_[port] == nullptr,
               "output " << port << " of " << name_ << " is already connected");
  outputs_[port] = ch;
}

void Element::set_metrics(MetricsRegistry* metrics) {
  metrics_ = metrics;
  if (metrics_) {
    const std::string prefix = "stream." + name_ + ".";
    m_blocks_ = prefix + "blocks";
    m_samples_ = prefix + "samples";
    m_block_us_ = prefix + "block_us";
    m_stalls_ = prefix + "stalls";
  }
  on_metrics(metrics);
}

// ------------------------------------------------------------------ Source

Source::Source(std::string name, std::size_t block_size)
    : Element(std::move(name), 0, 1), block_size_(block_size) {
  FF_CHECK_MSG(block_size_ > 0, "Source block_size must be >= 1");
}

void Source::add_handlers(HandlerRegistry& handlers) {
  Element::add_handlers(handlers);
  handlers.add_read("produced", [this] { return std::to_string(produced()); });
}

void Source::set_block_size(std::size_t block_size) {
  FF_CHECK_MSG(block_size > 0, name() << ": block size must be >= 1");
  FF_CHECK_MSG(pos_ == 0, name() << ": block size can only change before streaming");
  block_size_ = block_size;
}

bool Source::work() {
  bool moved = false;
  while (!exhausted() && out_ready(0)) {
    Block b;
    {
      MetricsRegistry::ScopedTimer timer(metrics(), block_timer_name());
      b.samples = generate();
    }
    FF_CHECK_MSG(!b.samples.empty(), name() << "::generate returned no samples");
    FF_CHECK_MSG(b.samples.size() <= block_size_,
                 name() << "::generate overflowed the block size");
    b.start = pos_;
    if (pos_ == 0) b.flags |= kBlockFirst;
    pos_ += b.samples.size();
    if (exhausted()) b.flags |= kBlockLast;
    emit(0, std::move(b));
    moved = true;
  }
  if (!exhausted() && !out_ready(0)) note_stall();
  if (exhausted()) close_outputs();
  return moved;
}

// --------------------------------------------------------------- Transform

void Transform::process_with_writes(Block& block) {
  if (writes_.empty()) {
    process(block);
    return;
  }
  const std::size_t n = block.samples.size();
  std::size_t off = 0;
  while (off < n) {
    // Fire every write due at (or before — late-scheduled positions apply
    // at the next boundary) the current sample position.
    while (!writes_.empty() && writes_.front().pos <= block.start + off) {
      const PendingWrite w = std::move(writes_.front());
      writes_.erase(writes_.begin());
      call_write(w.handler, w.value);
    }
    std::size_t chunk = n - off;
    if (!writes_.empty() && writes_.front().pos < block.start + n)
      chunk = std::min<std::size_t>(
          chunk, static_cast<std::size_t>(writes_.front().pos - (block.start + off)));
    if (off == 0 && chunk == n) {
      // No position falls inside this block: whole-block fast path.
      process(block);
      return;
    }
    // Process the sub-block [off, off+chunk) as its own Block. The wrapped
    // kernels are stateful and length-preserving, so piecewise == whole
    // bit-for-bit, and copying back keeps downstream block structure
    // unchanged (combiners require block-aligned inputs).
    Block piece;
    piece.samples.assign(
        block.samples.begin() + static_cast<std::ptrdiff_t>(off),
        block.samples.begin() + static_cast<std::ptrdiff_t>(off + chunk));
    piece.start = block.start + off;
    process(piece);
    FF_CHECK_MSG(piece.samples.size() == chunk,
                 name() << ": positioned writes need a length-preserving process()");
    std::copy(piece.samples.begin(), piece.samples.end(),
              block.samples.begin() + static_cast<std::ptrdiff_t>(off));
    off += chunk;
  }
}

bool Transform::work() {
  bool moved = false;
  while (in_available(0) && out_ready(0)) {
    Block b = pop(0);
    {
      MetricsRegistry::ScopedTimer timer(metrics(), block_timer_name());
      process_with_writes(b);
    }
    emit(0, std::move(b));
    moved = true;
  }
  if (in_available(0) && !out_ready(0)) note_stall();
  if (in_drained(0)) close_outputs();
  return moved;
}

// ---------------------------------------------------------------- Combine2

bool Combine2::work() {
  bool moved = false;
  while (in_available(0) && in_available(1) && out_ready(0)) {
    Block a = pop(0);
    const Block b = pop(1);
    FF_CHECK_MSG(a.start == b.start && a.samples.size() == b.samples.size(),
                 name() << ": misaligned input streams (block [" << a.start << ", "
                        << a.end() << ") vs [" << b.start << ", " << b.end()
                        << ")); combiners need block-aligned inputs");
    {
      MetricsRegistry::ScopedTimer timer(metrics(), block_timer_name());
      process(a, b);
    }
    a.flags |= b.flags;
    emit(0, std::move(a));
    moved = true;
  }
  if (in_available(0) && in_available(1) && !out_ready(0)) note_stall();
  if (in_drained(0) && in_drained(1)) close_outputs();
  // One side closed while the other still has samples queued or coming is a
  // misaligned graph; fail crisply instead of hanging the scheduler.
  FF_CHECK_MSG(!(in_drained(0) && in_available(1)) && !(in_drained(1) && in_available(0)),
               name() << ": one input stream ended before the other");
  return moved;
}

// ---------------------------------------------------------------- SinkBase

SinkBase::SinkBase(std::string name, std::size_t max_blocks_per_work)
    : Element(std::move(name), 1, 0), max_blocks_per_work_(max_blocks_per_work) {}

bool SinkBase::work() {
  bool moved = false;
  std::size_t taken = 0;
  while (in_available(0) &&
         (max_blocks_per_work_ == 0 || taken < max_blocks_per_work_)) {
    const Block b = pop(0);
    {
      MetricsRegistry::ScopedTimer timer(metrics(), block_timer_name());
      consume(b);
    }
    note_consumed(b);
    ++taken;
    moved = true;
  }
  return moved;
}

}  // namespace ff::stream
