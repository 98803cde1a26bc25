// AWGN generation and power scaling helpers.
//
// Power convention used throughout the simulator: a complex baseband sample
// stream with mean |x|^2 = P carries P milliwatts, so 10*log10(mean|x|^2)
// is directly dBm. TX at 20 dBm => mean power 100; noise floor -90 dBm =>
// variance 1e-9.
#pragma once

#include "common/rng.hpp"
#include "common/types.hpp"

namespace ff::dsp {

/// Generate `n` complex AWGN samples with total (I+Q) variance `power_mw`.
CVec awgn(Rng& rng, std::size_t n, double power_mw);

/// Generate AWGN at a dBm level.
CVec awgn_dbm(Rng& rng, std::size_t n, double power_dbm);

/// Add noise of total (I+Q) variance `power_mw` in place, one draw per
/// sample in order (the same draws awgn() makes).
void add_awgn(Rng& rng, CMutSpan x, double power_mw);

/// Scale a signal to an exact mean power (no-op on silence).
void set_mean_power(CMutSpan x, double power_mw);

/// Multiply all samples by a linear amplitude factor.
void scale(CMutSpan x, double amplitude);

/// Element-wise sum b into a (sizes must match).
void accumulate(CMutSpan a, CSpan b);

}  // namespace ff::dsp
