// Model of the tunable analog FIR cancellation board (Sec. 4.3).
//
// Structure copied from the hardware: a bank of fixed delay lines spaced
// 100-200 ps apart around the circulator leakage delay, each followed by a
// digital step attenuator adjustable from 0 to 31.75 dB in 0.25 dB steps.
// A copy of the transmitted RF signal feeds the bank and the summed output
// is subtracted at the receive coupler. Because the taps are pure delay +
// attenuation (no phase shifters), the achievable responses are
//   Hc(f) = sum_k g_k e^{-j 2 pi (fc + f) tau_k},  g_k in [g_min, 1] U {0},
// and tuning = fitting g_k against the observed self-interference. The
// 100 ps spacing makes adjacent taps ~90 degrees apart at 2.45 GHz, which is
// what lets non-negative gains reach arbitrary phases.
#pragma once

#include "channel/multipath.hpp"
#include "common/types.hpp"

namespace ff::fd {

struct AnalogCancellerConfig {
  double carrier_hz = 2.45e9;
  int taps = 8;
  double first_tap_delay_s = 0.6e-9;
  double tap_spacing_s = 110e-12;          // ~100 ps, quarter period at 2.45 GHz
  double attenuator_step_db = 0.25;
  double attenuator_range_db = 31.75;      // max attenuation (min gain)
  double insertion_gain_db = -14.0;        // coupler + splitter loss per tap path
};

class AnalogCanceller {
 public:
  explicit AnalogCanceller(AnalogCancellerConfig cfg = {});

  const AnalogCancellerConfig& config() const { return cfg_; }

  /// Current per-tap linear gains (0 = tap switched off).
  const std::vector<double>& gains() const { return gains_; }

  /// Fixed tap delays.
  const std::vector<double>& delays() const { return delays_; }

  /// Tune the attenuators from per-subcarrier SI estimates on the given
  /// baseband frequency grid (what the hardware does: the estimate comes
  /// from the Gaussian-probe correlation, Sec. 3.3). Returns the residual
  /// power ratio (residual energy / SI energy) achieved on that grid.
  double tune(CSpan si_response, RSpan f_grid_hz);

  /// The canceller's own response as a multipath channel (for composing with
  /// the SI channel or discretizing onto the sample grid).
  channel::MultipathChannel as_channel() const;

 private:
  /// Quantize a linear gain onto the attenuator grid.
  double quantize(double gain) const;

  AnalogCancellerConfig cfg_;
  std::vector<double> delays_;
  std::vector<double> gains_;
};

}  // namespace ff::fd
