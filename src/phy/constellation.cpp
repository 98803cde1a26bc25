#include "phy/constellation.hpp"

#include <array>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace ff::phy {

namespace {

/// Inverse Gray code.
std::uint32_t inverse_gray(std::uint32_t g) {
  std::uint32_t x = 0;
  for (; g; g >>= 1) x ^= g;
  return x;
}

/// Per-axis PAM amplitude for a square QAM with `levels` levels per axis,
/// Gray-mapped: bit pattern b in [0, levels) -> odd integer coordinate.
double pam_level(std::uint32_t bits, std::uint32_t levels) {
  const std::uint32_t idx = inverse_gray(bits);
  return 2.0 * static_cast<double>(idx) - static_cast<double>(levels - 1);
}

/// Normalization so the constellation has unit average power.
double qam_scale(std::uint32_t levels) {
  // E[x^2] over PAM levels {±1, ±3, ...}: (levels^2 - 1)/3 per axis.
  const double per_axis = (static_cast<double>(levels) * levels - 1.0) / 3.0;
  return 1.0 / std::sqrt(2.0 * per_axis);
}

struct QamSpec {
  std::uint32_t bits_i;  // bits on the I axis
  std::uint32_t bits_q;  // bits on the Q axis
};

QamSpec spec(Modulation m) {
  switch (m) {
    case Modulation::BPSK: return {1, 0};
    case Modulation::QPSK: return {1, 1};
    case Modulation::QAM16: return {2, 2};
    case Modulation::QAM64: return {3, 3};
    case Modulation::QAM256: return {4, 4};
  }
  FF_CHECK_MSG(false, "unknown modulation");
  return {};
}

}  // namespace

std::size_t bits_per_symbol(Modulation m) {
  const auto s = spec(m);
  return s.bits_i + s.bits_q;
}

std::string to_string(Modulation m) {
  switch (m) {
    case Modulation::BPSK: return "BPSK";
    case Modulation::QPSK: return "QPSK";
    case Modulation::QAM16: return "16-QAM";
    case Modulation::QAM64: return "64-QAM";
    case Modulation::QAM256: return "256-QAM";
  }
  return "?";
}

CVec modulate(std::span<const std::uint8_t> bits, Modulation m) {
  const auto s = spec(m);
  const std::size_t bps = s.bits_i + s.bits_q;
  FF_CHECK_MSG(bits.size() % bps == 0, "bit count not a multiple of bits/symbol");
  const std::uint32_t levels_i = 1u << s.bits_i;
  const std::uint32_t levels_q = s.bits_q ? (1u << s.bits_q) : 1u;
  const double scale = (m == Modulation::BPSK)
                           ? 1.0
                           : qam_scale(levels_i);

  CVec out;
  out.reserve(bits.size() / bps);
  for (std::size_t n = 0; n < bits.size(); n += bps) {
    std::uint32_t bi = 0, bq = 0;
    for (std::uint32_t k = 0; k < s.bits_i; ++k) bi = (bi << 1) | bits[n + k];
    for (std::uint32_t k = 0; k < s.bits_q; ++k) bq = (bq << 1) | bits[n + s.bits_i + k];
    if (m == Modulation::BPSK) {
      out.push_back(Complex{bi ? -1.0 : 1.0, 0.0});
    } else {
      out.push_back(scale * Complex{pam_level(bi, levels_i), pam_level(bq, levels_q)});
    }
  }
  return out;
}

CVec constellation_points(Modulation m) {
  const std::size_t bps = bits_per_symbol(m);
  const std::size_t count = std::size_t{1} << bps;
  std::vector<std::uint8_t> bits(bps);
  CVec pts;
  pts.reserve(count);
  for (std::size_t v = 0; v < count; ++v) {
    for (std::size_t k = 0; k < bps; ++k) bits[k] = static_cast<std::uint8_t>((v >> (bps - 1 - k)) & 1);
    const CVec one = modulate(bits, m);
    pts.push_back(one[0]);
  }
  return pts;
}

std::vector<std::uint8_t> demodulate_hard(CSpan symbols, Modulation m) {
  const CVec pts = constellation_points(m);
  const std::size_t bps = bits_per_symbol(m);
  std::vector<std::uint8_t> bits;
  bits.reserve(symbols.size() * bps);
  for (const Complex y : symbols) {
    std::size_t best = 0;
    double best_d = std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < pts.size(); ++i) {
      const double d = std::norm(y - pts[i]);
      if (d < best_d) { best_d = d; best = i; }
    }
    for (std::size_t k = 0; k < bps; ++k)
      bits.push_back(static_cast<std::uint8_t>((best >> (bps - 1 - k)) & 1));
  }
  return bits;
}

std::vector<double> demodulate_soft(CSpan symbols, Modulation m, double noise_var) {
  const CVec pts = constellation_points(m);
  const std::size_t bps = bits_per_symbol(m);
  const double inv_nv = 1.0 / std::max(noise_var, 1e-30);
  std::vector<double> llrs;
  llrs.reserve(symbols.size() * bps);
  for (const Complex y : symbols) {
    for (std::size_t k = 0; k < bps; ++k) {
      double best0 = std::numeric_limits<double>::max();
      double best1 = std::numeric_limits<double>::max();
      for (std::size_t i = 0; i < pts.size(); ++i) {
        const double d = std::norm(y - pts[i]);
        const bool bit = ((i >> (bps - 1 - k)) & 1) != 0;
        if (bit) best1 = std::min(best1, d); else best0 = std::min(best0, d);
      }
      llrs.push_back((best1 - best0) * inv_nv);
    }
  }
  return llrs;
}

}  // namespace ff::phy
