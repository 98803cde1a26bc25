// Geometric MIMO multipath channel.
//
// Each propagation path carries a scalar complex amplitude plus transmit and
// receive array steering vectors; the channel matrix at baseband frequency f
// is  H(f) = sum_p amp_p e^{-j 2 pi (fc + f) tau_p} a_rx(p) a_tx(p)^H.
//
// This per-path outer-product structure is what produces the paper's MIMO
// rank physics: a location reached by one dominant path (the RF pinhole of
// Sec. 1) has a rank-1 channel no matter how many antennas the AP has, and
// the FF relay restores rank precisely because its path arrives with an
// independent steering pair.
#pragma once

#include <cstddef>

#include "channel/multipath.hpp"
#include "common/types.hpp"
#include "linalg/matrix.hpp"

namespace ff::channel {

struct MimoPath {
  double delay_s = 0.0;
  Complex amp{};       // scalar amplitude excluding carrier phase
  CVec rx_steering;    // length = #rx antennas, unit-magnitude entries
  CVec tx_steering;    // length = #tx antennas
};

class MimoChannel {
 public:
  MimoChannel() = default;
  MimoChannel(std::size_t n_rx, std::size_t n_tx, std::vector<MimoPath> paths,
              double carrier_hz);

  /// SISO special case from a scalar multipath channel.
  static MimoChannel from_siso(const MultipathChannel& ch);

  std::size_t n_rx() const { return n_rx_; }
  std::size_t n_tx() const { return n_tx_; }
  const std::vector<MimoPath>& paths() const { return paths_; }
  double carrier_hz() const { return carrier_hz_; }
  bool empty() const { return paths_.empty(); }

  /// Channel matrix at baseband frequency offset `f_bb_hz`.
  linalg::Matrix response(double f_bb_hz) const;

  /// Scalar sub-channel between rx antenna i and tx antenna j.
  MultipathChannel subchannel(std::size_t rx, std::size_t tx) const;

 private:
  std::size_t n_rx_ = 0, n_tx_ = 0;
  std::vector<MimoPath> paths_;
  double carrier_hz_ = 2.45e9;
};

}  // namespace ff::channel
