#include "phy/preamble.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/fft.hpp"
#include "phy/ofdm.hpp"

namespace ff::phy {

namespace {

// 802.11a STF sign pattern on subcarriers -24,-20,...,24 (multiples of 4).
// Extended to +-28 to cover the HT20 56-subcarrier set while keeping the
// 16-sample periodicity (non-zero only at multiples of 4).
/// Deterministic pseudo-random sign for tones beyond the 802.11 tables
/// (wider numerologies such as LTE): a tiny integer hash of k.
int hashed_sign(int k) {
  std::uint32_t x = static_cast<std::uint32_t>(k * 2654435761u + 0x9E3779B9u);
  x ^= x >> 16;
  x *= 0x45D9F3Bu;
  x ^= x >> 13;
  return (x & 1u) ? 1 : -1;
}

int stf_sign(int k) {
  if (k % 4 != 0) return 0;
  if (k < -28 || k > 28) return hashed_sign(k);
  switch (k) {
    case -28: return 1;
    case -24: return 1;
    case -20: return -1;
    case -16: return 1;
    case -12: return -1;
    case -8: return -1;
    case -4: return 1;
    case 4: return -1;
    case 8: return -1;
    case 12: return 1;
    case 16: return 1;
    case 20: return 1;
    case 24: return 1;
    case 28: return 1;
    default: return 0;
  }
}

// 802.11a LTF sequence for k = -26..-1 then +1..+26, extended to +-28.
constexpr int kLtfNeg[26] = {1, 1, -1, -1, 1,  1, -1, 1, -1, 1, 1, 1, 1,
                             1, 1, -1, -1, 1,  1, -1, 1, -1, 1, 1, 1, 1};
constexpr int kLtfPos[26] = {1, -1, -1, 1, 1, -1, 1, -1, 1, -1, -1, -1, -1,
                             -1, 1, 1, -1, -1, 1, -1, 1, -1, 1, 1, 1, 1};

int ltf_sign(int k) {
  if (k >= -26 && k <= -1) return kLtfNeg[k + 26];
  if (k >= 1 && k <= 26) return kLtfPos[k - 1];
  if (k == -28 || k == 28) return 1;
  if (k == -27 || k == 27) return -1;
  if (k != 0) return hashed_sign(k ^ 0x55);  // wider numerologies
  return 0;
}

}  // namespace

CVec stf_used_values(const OfdmParams& params) {
  const auto used = params.used_subcarriers();
  // The STF occupies every 4th tone (16-sample periodicity); boost each
  // occupied tone so the total subcarrier power matches a data symbol's and
  // the STF comes out at the same mean sample power.
  std::size_t occupied = 0;
  for (const int k : used) occupied += stf_sign(k) != 0;
  const double amp = std::sqrt(static_cast<double>(used.size()) /
                               std::max<std::size_t>(occupied, 1));
  const Complex unit = Complex{1.0, 1.0} / std::sqrt(2.0);
  CVec out(used.size(), Complex{});
  for (std::size_t i = 0; i < used.size(); ++i)
    out[i] = static_cast<double>(stf_sign(used[i])) * amp * unit;
  return out;
}

CVec ltf_used_values(const OfdmParams& params) {
  const auto used = params.used_subcarriers();
  CVec out(used.size());
  for (std::size_t i = 0; i < used.size(); ++i)
    out[i] = Complex{static_cast<double>(ltf_sign(used[i])), 0.0};
  return out;
}

CVec stf_time(const OfdmParams& params) {
  const OfdmModem modem(params);
  const CVec sym = modem.modulate_symbol(stf_used_values(params));
  // Body of the symbol (skip CP); the first 16 samples are the STF word.
  const std::size_t word_len = params.fft_size / 4;
  CVec out;
  out.reserve(10 * word_len);
  for (int rep = 0; rep < 10; ++rep)
    out.insert(out.end(), sym.begin() + static_cast<long>(params.cp_len),
               sym.begin() + static_cast<long>(params.cp_len + word_len));
  return out;
}

CVec ltf_time(const OfdmParams& params) {
  const OfdmModem modem(params);
  const CVec sym = modem.modulate_symbol(ltf_used_values(params));
  CSpan body = CSpan(sym).subspan(params.cp_len);  // 64-sample word
  CVec out;
  out.reserve(2 * params.cp_len + 2 * params.fft_size);
  // Double-length guard: tail of the word.
  out.insert(out.end(), body.end() - static_cast<long>(2 * params.cp_len), body.end());
  out.insert(out.end(), body.begin(), body.end());
  out.insert(out.end(), body.begin(), body.end());
  return out;
}

CVec preamble_time(const OfdmParams& params) {
  CVec out = stf_time(params);
  const CVec ltf = ltf_time(params);
  out.insert(out.end(), ltf.begin(), ltf.end());
  return out;
}

double estimate_cfo_stf(CSpan rx, const OfdmParams& params) {
  const std::size_t word = params.fft_size / 4;        // 16 samples
  const std::size_t stf_len = 10 * word;
  FF_CHECK(rx.size() >= stf_len);
  Complex acc{0.0, 0.0};
  for (std::size_t n = 0; n + word < stf_len; ++n) acc += std::conj(rx[n]) * rx[n + word];
  const double phase = std::arg(acc);
  return phase / (kTwoPi * static_cast<double>(word) * params.sample_period_s());
}

double estimate_cfo_ltf(CSpan rx, const OfdmParams& params) {
  const std::size_t n = params.fft_size;
  FF_CHECK(rx.size() >= 2 * n);
  Complex acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) acc += std::conj(rx[i]) * rx[i + n];
  return std::arg(acc) / (kTwoPi * static_cast<double>(n) * params.sample_period_s());
}

CVec estimate_channel_ltf(CSpan rx, const OfdmParams& params) {
  const std::size_t n = params.fft_size;
  FF_CHECK(rx.size() >= 2 * n);
  const auto used = params.used_subcarriers();
  const CVec ref = ltf_used_values(params);
  const dsp::FftPlan<>& plan = dsp::FftPlan<>::cached(n);
  const double norm = 1.0 / std::sqrt(static_cast<double>(n) * static_cast<double>(n) /
                                      static_cast<double>(used.size()));
  CVec est(used.size(), Complex{});
  for (int word = 0; word < 2; ++word) {
    CVec freq(rx.begin() + word * static_cast<long>(n),
              rx.begin() + (word + 1) * static_cast<long>(n));
    plan.forward(freq);
    for (std::size_t i = 0; i < used.size(); ++i)
      est[i] += freq[params.fft_bin(used[i])] * norm / ref[i];
  }
  for (auto& h : est) h *= 0.5;
  return est;
}

}  // namespace ff::phy
