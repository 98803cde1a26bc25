#include "channel/mimo.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"

namespace ff::channel {

MimoChannel::MimoChannel(std::size_t n_rx, std::size_t n_tx, std::vector<MimoPath> paths,
                         double carrier_hz)
    : n_rx_(n_rx), n_tx_(n_tx), paths_(std::move(paths)), carrier_hz_(carrier_hz) {
  FF_CHECK(n_rx_ > 0 && n_tx_ > 0);
  for (const auto& p : paths_) {
    FF_CHECK_MSG(p.rx_steering.size() == n_rx_ && p.tx_steering.size() == n_tx_,
                 "steering vector length mismatch");
    FF_CHECK(p.delay_s >= 0.0);
  }
}

MimoChannel MimoChannel::from_siso(const MultipathChannel& ch) {
  std::vector<MimoPath> paths;
  paths.reserve(ch.taps().size());
  for (const auto& t : ch.taps())
    paths.push_back({t.delay_s, t.amp, CVec{Complex{1.0, 0.0}}, CVec{Complex{1.0, 0.0}}});
  return MimoChannel(1, 1, std::move(paths), ch.carrier_hz());
}

linalg::Matrix MimoChannel::response(double f_bb_hz) const {
  linalg::Matrix h(n_rx_, n_tx_);
  for (const auto& p : paths_) {
    const double phase = -kTwoPi * (carrier_hz_ + f_bb_hz) * p.delay_s;
    const Complex g = p.amp * Complex{std::cos(phase), std::sin(phase)};
    for (std::size_t i = 0; i < n_rx_; ++i)
      for (std::size_t j = 0; j < n_tx_; ++j)
        h(i, j) += g * p.rx_steering[i] * std::conj(p.tx_steering[j]);
  }
  return h;
}

MultipathChannel MimoChannel::subchannel(std::size_t rx, std::size_t tx) const {
  FF_CHECK(rx < n_rx_ && tx < n_tx_);
  std::vector<PathTap> taps;
  taps.reserve(paths_.size());
  for (const auto& p : paths_)
    taps.push_back({p.delay_s, p.amp * p.rx_steering[rx] * std::conj(p.tx_steering[tx])});
  return MultipathChannel(std::move(taps), carrier_hz_);
}

}  // namespace ff::channel
