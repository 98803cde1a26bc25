// The stream channel's AWGN sampler (common/noise.hpp): golden draws that
// pin the sequence bit for bit, moment checks that hold it to a standard
// normal, and a recomputation of the committed ziggurat tables.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/noise.hpp"

namespace ff {
namespace {

// ------------------------------------------------------------ golden draws

// SplitMix64's first outputs from state 1234567 (the published algorithm,
// computed independently of this file): the uniform source is the textbook
// generator, not a look-alike.
TEST(NoiseGolden, SplitMix64MatchesReferenceSequence) {
  SplitMix64 g(1234567);
  EXPECT_EQ(g.next(), 6457827717110365317ULL);
  EXPECT_EQ(g.next(), 3203168211198807973ULL);
  EXPECT_EQ(g.next(), 9817491932198370423ULL);
  EXPECT_EQ(g.next(), 4593380528125082431ULL);
  EXPECT_EQ(g.next(), 16408922859458223821ULL);
}

// The first 16 Gaussian draws for one key, as IEEE-754 bit patterns. A
// toolchain, table or algorithm change that moves any bit of the channel
// noise fails here before it moves a stream checksum.
TEST(NoiseGolden, FirstSixteenGaussianDrawsArePinned) {
  constexpr std::uint64_t kWant[16] = {
      0xBF9058995471C087ULL, 0xBFD88B19A7D72690ULL, 0x3FD32AC115B4C882ULL,
      0xBFDE57ACCF50B603ULL, 0xBFE17A54FCF23451ULL, 0x3FC5FB673003188DULL,
      0xBFFEEBF727757BF3ULL, 0x3FDD736F29809103ULL, 0xBFF02B8F667546B0ULL,
      0x3FBA43B3352D633AULL, 0xBFBB0E6104D3F50DULL, 0x3FE56BFD3F767D58ULL,
      0x3FF48DBC5C744F3FULL, 0x3FE44C0D5AFBC88DULL, 0xBFCFE9C1A23947DFULL,
      0x3FD3FBCF4F3D02E0ULL};
  NoiseSampler s(0x5EED5EED5EED5EEDULL);
  for (int i = 0; i < 16; ++i)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(s.gaussian()), kWant[i]) << "draw " << i;
}

// The first 16 draws are all fast-path values. The wedge and tail paths
// (std::exp / std::log) are pinned by an FNV-1a fold over the bytes of the
// first 10^5 draws of the same key, 1420 of which take the wedge and 19 the
// tail: a libm that rounds one of those differently fails here.
TEST(NoiseGolden, SlowPathDrawsArePinned) {
  NoiseSampler s(0x5EED5EED5EED5EEDULL);
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (int i = 0; i < 100'000; ++i) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(s.gaussian());
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xFF;
      h *= 0x100000001B3ULL;
    }
  }
  EXPECT_EQ(h, 0xD9F19678994BB622ULL);
}

// ----------------------------------------------------------------- moments

// 10^6 draws against N(0, 1). The sequence is fixed, so these are sanity
// bounds, each ~5 standard errors wide: mean ±5/√n, variance ±5·√(2/n),
// fourth moment 3 ± 5·√(96/n), and the share beyond the tail cut-off kR
// (2·Q(kR) = 2.58e-4, i.e. 258 of 10^6) within ±5·√258.
TEST(NoiseMoments, MatchStandardNormal) {
  constexpr std::size_t kN = 1'000'000;
  NoiseSampler s(20140817);
  double sum = 0.0, sum2 = 0.0, sum4 = 0.0;
  std::size_t beyond = 0;
  for (std::size_t i = 0; i < kN; ++i) {
    const double x = s.gaussian();
    sum += x;
    sum2 += x * x;
    sum4 += x * x * x * x;
    if (std::abs(x) >= ziggurat::kR) ++beyond;
  }
  const double n = static_cast<double>(kN);
  const double mean = sum / n;
  const double var = sum2 / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 5.0 / std::sqrt(n));
  EXPECT_NEAR(var, 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(sum4 / n, 3.0, 5.0 * std::sqrt(96.0 / n));
  const double want_beyond = std::erfc(ziggurat::kR / std::sqrt(2.0)) * n;
  EXPECT_NEAR(static_cast<double>(beyond), want_beyond, 5.0 * std::sqrt(want_beyond));
}

// add_cgaussian: E[|n|²] = variance split evenly over I and Q, and the
// real and imaginary parts uncorrelated.
TEST(NoiseMoments, ComplexNoiseHasRequestedPowerPerComponent) {
  constexpr std::size_t kN = 200'000;
  constexpr double kVariance = 1e-9;  // the -90 dBm thermal floor
  std::vector<std::complex<double>> x(kN);
  NoiseSampler(7).add_cgaussian(std::span<std::complex<double>>(x), kVariance);
  double p = 0.0, pi = 0.0, cross = 0.0;
  for (const auto& v : x) {
    p += std::norm(v);
    pi += v.imag() * v.imag();
    cross += v.real() * v.imag();
  }
  const double n = static_cast<double>(kN);
  EXPECT_NEAR(p / n / kVariance, 1.0, 5.0 * std::sqrt(1.0 / n));
  EXPECT_NEAR(pi / n / (kVariance / 2.0), 1.0, 5.0 * std::sqrt(2.0 / n));
  EXPECT_NEAR(cross / n / (kVariance / 2.0), 0.0, 5.0 / std::sqrt(n));
}

// --------------------------------------------------------- draw contracts

// Both precisions consume the same double draws: float noise is the double
// noise rounded once, and the stream is split across calls without moving
// a draw.
TEST(NoiseContract, FloatNoiseIsDoubleNoiseNarrowedAndBlockingIsInvisible) {
  constexpr std::size_t kN = 4099;
  std::vector<std::complex<double>> d(kN);
  std::vector<std::complex<float>> f(kN);
  NoiseSampler(99).add_cgaussian(std::span<std::complex<double>>(d), 0.5);
  NoiseSampler sf(99);
  for (std::size_t at = 0, chunk = 1; at < kN; at += chunk, chunk = chunk * 3 % 257 + 1)
    sf.add_cgaussian(std::span<std::complex<float>>(f).subspan(at, std::min(chunk, kN - at)),
                     0.5);
  for (std::size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(f[i].real(), static_cast<float>(d[i].real())) << i;
    ASSERT_EQ(f[i].imag(), static_cast<float>(d[i].imag())) << i;
  }
}

// ------------------------------------------------------------------ tables

long double f_of(long double x) { return std::exp(-x * x / 2.0L); }

bool close(double committed, long double want, long double rel) {
  if (want == 0.0L) return committed == 0.0;
  return std::abs((static_cast<long double>(committed) - want) / want) <= rel;
}

// Recompute the ziggurat from its two defining doubles in long double and
// match every committed hex literal to 1e-15 relative (~4.5 ulp): a
// mistyped digit anywhere but the last hex place moves a value by far
// more. The recurrence amplifies a relative error in kV ~100-fold by the
// top layer, so it starts from the committed kV exactly, as the literals
// were generated.
TEST(ZigguratTables, MatchLongDoubleRecurrence) {
  constexpr long double kRel = 1e-15L;
  const long double r = ziggurat::kR;
  const long double v = ziggurat::kV;
  const long double pi = 3.141592653589793238462643383279502884L;
  const long double area =
      r * f_of(r) + std::sqrt(pi / 2.0L) * std::erfc(r / std::sqrt(2.0L));
  EXPECT_TRUE(close(ziggurat::kV, area, kRel)) << "kV vs the layer area at kR";

  long double x[257];
  x[0] = v / f_of(r);
  x[1] = r;
  for (int i = 1; i < 255; ++i) x[i + 1] = std::sqrt(-2.0L * std::log(v / x[i] + f_of(x[i])));
  x[256] = 0.0L;
  for (int i = 0; i <= 256; ++i) {
    EXPECT_TRUE(close(ziggurat::kX[i], x[i], kRel))
        << "kX[" << i << "] = " << ziggurat::kX[i] << ", recurrence " << static_cast<double>(x[i]);
    EXPECT_TRUE(close(ziggurat::kF[i], f_of(x[i]), kRel))
        << "kF[" << i << "] = " << ziggurat::kF[i] << ", recurrence "
        << static_cast<double>(f_of(x[i]));
  }
  // The top layer closes the ziggurat: its area from the recurrence is kV.
  EXPECT_NEAR(static_cast<double>(v / x[255] + f_of(x[255])), 1.0, 1e-15);
}

// The compile-time fast-path tables follow from kX: layer i accepts
// without exp exactly when x < kX[i+1], and the cap layer never does.
TEST(ZigguratTables, FastPathTablesFollowEdges) {
  for (int i = 0; i < 256; ++i) {
    EXPECT_EQ(ziggurat::kFast.w[i], ziggurat::kX[i] * 0x1p-52) << i;
    const double k = static_cast<double>(ziggurat::kFast.k[i]);
    EXPECT_LE(k * ziggurat::kFast.w[i], ziggurat::kX[i + 1]) << i;
    EXPECT_GT((k + 1.0) * ziggurat::kFast.w[i], ziggurat::kX[i + 1] * (1.0 - 1e-15)) << i;
  }
  EXPECT_EQ(ziggurat::kFast.k[255], 0u);
}

}  // namespace
}  // namespace ff
