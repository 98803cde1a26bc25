#include "phy/fec.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace ff::phy {

namespace {

constexpr unsigned kConstraint = 7;
constexpr unsigned kStates = 1u << (kConstraint - 1);  // 64

// 802.11 generators: g0 = 133 octal = 1011011b, g1 = 171 octal = 1111001b.
// Convention: bit 6 is the newest input bit.
constexpr unsigned kGen0 = 0b1011011;
constexpr unsigned kGen1 = 0b1111001;

int parity(unsigned x) { return __builtin_popcount(x) & 1; }

/// Output pair for transitioning from `state` with input `bit`.
/// State holds the previous 6 inputs, newest in the MSB... we use:
/// register r = [newest ... oldest] of 7 bits = (bit << 6) | state.
std::pair<int, int> encode_step(unsigned state, unsigned bit) {
  const unsigned reg = (bit << 6) | state;
  return {parity(reg & kGen0), parity(reg & kGen1)};
}

unsigned next_state(unsigned state, unsigned bit) { return ((bit << 6) | state) >> 1; }

}  // namespace

std::string to_string(CodeRate r) {
  switch (r) {
    case CodeRate::R1_2: return "1/2";
    case CodeRate::R2_3: return "2/3";
    case CodeRate::R3_4: return "3/4";
    case CodeRate::R5_6: return "5/6";
  }
  return "?";
}

std::vector<std::uint8_t> puncture_pattern(CodeRate rate) {
  // Patterns over (A, B) output pairs per input bit, 802.11 style.
  switch (rate) {
    case CodeRate::R1_2: return {1, 1};
    case CodeRate::R2_3: return {1, 1, 1, 0};
    case CodeRate::R3_4: return {1, 1, 1, 0, 0, 1};
    case CodeRate::R5_6: return {1, 1, 1, 0, 0, 1, 1, 0, 0, 1};
  }
  return {1, 1};
}

std::vector<std::uint8_t> convolutional_encode(std::span<const std::uint8_t> bits,
                                               CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  std::vector<std::uint8_t> mother;
  mother.reserve(2 * (bits.size() + 6));
  unsigned state = 0;
  auto push = [&](unsigned bit) {
    const auto [a, b] = encode_step(state, bit);
    mother.push_back(static_cast<std::uint8_t>(a));
    mother.push_back(static_cast<std::uint8_t>(b));
    state = next_state(state, bit);
  };
  for (const std::uint8_t b : bits) push(b & 1u);
  for (int i = 0; i < 6; ++i) push(0);  // tail termination

  std::vector<std::uint8_t> out;
  out.reserve(mother.size());
  for (std::size_t i = 0; i < mother.size(); ++i)
    if (pattern[i % pattern.size()]) out.push_back(mother[i]);
  return out;
}

std::size_t coded_length(std::size_t message_bits, CodeRate rate) {
  const auto pattern = puncture_pattern(rate);
  const std::size_t mother = 2 * (message_bits + 6);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < mother; ++i)
    if (pattern[i % pattern.size()]) ++kept;
  return kept;
}

std::vector<std::uint8_t> viterbi_decode(std::span<const double> llrs, CodeRate rate,
                                         std::size_t message_bits) {
  const auto pattern = puncture_pattern(rate);
  const std::size_t total_bits = message_bits + 6;

  // Re-insert erasures (LLR 0) at punctured positions.
  std::vector<double> full(2 * total_bits, 0.0);
  std::size_t src = 0;
  for (std::size_t i = 0; i < full.size(); ++i) {
    if (pattern[i % pattern.size()]) {
      FF_CHECK_MSG(src < llrs.size(), "LLR stream too short for message length");
      full[i] = llrs[src++];
    }
  }

  constexpr double kNegInf = -std::numeric_limits<double>::max() / 4.0;
  std::vector<double> metric(kStates, kNegInf);
  metric[0] = 0.0;
  std::vector<double> next_metric(kStates);
  // Survivor bits, one row per trellis step.
  std::vector<std::vector<std::uint8_t>> survivor(total_bits,
                                                  std::vector<std::uint8_t>(kStates, 0));
  std::vector<std::vector<std::uint8_t>> prev_state_bit = survivor;  // input bit taken
  std::vector<std::vector<std::uint8_t>> prev_state_hi(total_bits,
                                                       std::vector<std::uint8_t>(kStates, 0));

  for (std::size_t t = 0; t < total_bits; ++t) {
    std::fill(next_metric.begin(), next_metric.end(), kNegInf);
    const double la = full[2 * t];
    const double lb = full[2 * t + 1];
    for (unsigned s = 0; s < kStates; ++s) {
      if (metric[s] <= kNegInf / 2) continue;
      for (unsigned bit = 0; bit <= 1; ++bit) {
        const auto [a, b] = encode_step(s, bit);
        // LLR convention: positive favours bit 0. Branch reward adds +llr/2
        // when the coded bit is 0, -llr/2 when it is 1.
        const double reward = (a ? -la : la) * 0.5 + (b ? -lb : lb) * 0.5;
        const unsigned ns = next_state(s, bit);
        const double cand = metric[s] + reward;
        if (cand > next_metric[ns]) {
          next_metric[ns] = cand;
          prev_state_bit[t][ns] = static_cast<std::uint8_t>(bit);
          prev_state_hi[t][ns] = static_cast<std::uint8_t>(s);
        }
      }
    }
    metric.swap(next_metric);
  }

  // Encoder is terminated, so trace back from state 0.
  std::vector<std::uint8_t> decoded(total_bits);
  unsigned state = 0;
  for (std::size_t t = total_bits; t-- > 0;) {
    decoded[t] = prev_state_bit[t][state];
    state = prev_state_hi[t][state];
  }
  decoded.resize(message_bits);
  return decoded;
}

}  // namespace ff::phy
