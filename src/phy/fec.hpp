// Forward error correction: the 802.11 rate-1/2 K=7 convolutional code
// (generators 133/171 octal) with puncturing to 2/3, 3/4 and 5/6, and a
// soft-decision Viterbi decoder.
#pragma once

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace ff::phy {

enum class CodeRate : std::uint8_t { R1_2, R2_3, R3_4, R5_6 };

std::string to_string(CodeRate r);

/// Convolutionally encode (rate 1/2 mother code), then puncture to `rate`.
/// The encoder is terminated with 6 tail zeros (callers account for them).
std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits,
                                               CodeRate rate);

/// Soft-decision Viterbi decode. `llrs` are per-coded-bit log-likelihood
/// ratios (positive = bit 0); punctured positions are re-inserted as
/// zero-confidence erasures. `message_bits` is the original message length
/// (excluding the 6 tail bits).
std::vector<std::uint8_t> viterbi_decode(std::span<const double> llrs, CodeRate rate,
                                         std::size_t message_bits);

/// Number of coded bits produced for a message of `message_bits` (includes
/// tail termination and puncturing).
std::size_t coded_length(std::size_t message_bits, CodeRate rate);

/// Puncturing pattern (1 = transmitted) over the mother-code bit pairs.
/// Exposed for tests.
std::vector<std::uint8_t> puncture_pattern(CodeRate rate);

}  // namespace ff::phy
