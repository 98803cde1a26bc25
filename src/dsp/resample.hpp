// Integer-factor resampling (windowed-sinc).
//
// The FF prototype digitizes the 20 MHz signal at 80 Msps (Sec. 3.4): the
// 4x oversampling is what gives the short CNF pre-filter enough in-band
// freedom to realize the phase trajectories constructive forwarding needs.
// The time-domain simulator therefore runs the relay at the oversampled
// rate and converts at the PHY boundaries with these helpers.
#pragma once

#include <cstddef>

#include "common/types.hpp"

namespace ff::dsp {

/// Upsample by an integer factor: zero-stuff then interpolate with a
/// Hamming-windowed sinc low-pass (cutoff Nyquist/factor, passband gain 1).
/// Computed polyphase, without the zero terms; the bits are those of
/// filtering the zero-stuffed input (resample.cpp gives the argument).
/// Output length = x.size() * factor; the interpolation filter's group
/// delay (half_width * factor samples at the high rate) is NOT removed —
/// callers tracking absolute timing must account for it (or apply the same
/// operator to every parallel path, as the link simulator does).
CVec upsample(CSpan x, std::size_t factor, std::size_t half_width = 12);

/// Downsample by an integer factor with the matching anti-alias filter.
/// Output length = x.size() / factor. Only the kept outputs are filtered.
CVec downsample(CSpan x, std::size_t factor, std::size_t half_width = 12);

/// The interpolation low-pass used by both directions (exposed for tests).
CVec resample_kernel(std::size_t factor, std::size_t half_width);

/// Group delay (in high-rate samples) of the resampling kernel.
std::size_t resample_group_delay(std::size_t factor, std::size_t half_width = 12);

}  // namespace ff::dsp
