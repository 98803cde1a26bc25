// Gray-mapped QAM constellations, BPSK through 256-QAM.
//
// 256-QAM matters here: the paper's headline mechanism is that FF's SNR gain
// lets the AP step up from BPSK/QAM16 to 64/256-QAM (Sec. 5.2), so the rate
// table must extend to the 802.11ac modulations.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace ff::phy {

enum class Modulation : std::uint8_t { BPSK, QPSK, QAM16, QAM64, QAM256 };

/// Bits carried per constellation symbol (1, 2, 4, 6, 8).
std::size_t bits_per_symbol(Modulation m);

std::string to_string(Modulation m);

/// Map a bit sequence to unit-average-power constellation points.
/// bits.size() must be a multiple of bits_per_symbol(m).
CVec modulate(std::span<const std::uint8_t> bits, Modulation m);

/// Hard-decision demap (minimum distance).
std::vector<std::uint8_t> demodulate_hard(CSpan symbols, Modulation m);

/// Soft demap: max-log LLRs, one per bit, positive means bit 0 more likely.
/// `noise_var` is the complex noise variance per symbol.
std::vector<double> demodulate_soft(CSpan symbols, Modulation m, double noise_var);

/// All constellation points of a modulation (Gray-mapped order: the point at
/// index i is the encoding of the bit pattern i).
CVec constellation_points(Modulation m);

}  // namespace ff::phy
