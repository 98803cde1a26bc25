// Unit and property tests for the DSP substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <span>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/fractional_delay.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/noise.hpp"
#include "dsp/resample.hpp"
#include "dsp/sequence.hpp"

namespace ff {
namespace {

// ---------------------------------------------------------------- FFT

class FftSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FftSizes, ForwardInverseRoundTrip) {
  const std::size_t n = GetParam();
  Rng rng(n);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian();
  CVec y = x;
  const dsp::FftPlan plan(n);
  plan.forward(y);
  plan.inverse(y);
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(std::abs(y[i] - x[i]), 0.0, 1e-10);
}

TEST_P(FftSizes, ParsevalHolds) {
  const std::size_t n = GetParam();
  Rng rng(n + 1);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian();
  double time_energy = 0.0;
  for (const Complex v : x) time_energy += std::norm(v);
  const CVec f = dsp::fft(x);
  double freq_energy = 0.0;
  for (const Complex v : f) freq_energy += std::norm(v);
  EXPECT_NEAR(freq_energy, time_energy * static_cast<double>(n),
              1e-8 * time_energy * static_cast<double>(n));
}

INSTANTIATE_TEST_SUITE_P(PowersOfTwo, FftSizes,
                         ::testing::Values(2, 4, 8, 16, 64, 128, 512, 2048));

TEST(Fft, SingleToneLandsInOneBin) {
  const std::size_t n = 64;
  CVec x(n);
  const int k = 5;
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * k * static_cast<double>(i) / static_cast<double>(n);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec f = dsp::fft(x);
  for (std::size_t b = 0; b < n; ++b) {
    if (b == static_cast<std::size_t>(k))
      EXPECT_NEAR(std::abs(f[b]), static_cast<double>(n), 1e-9);
    else
      EXPECT_NEAR(std::abs(f[b]), 0.0, 1e-9);
  }
}

TEST(Fft, MatchesDirectDft) {
  const std::size_t n = 16;
  Rng rng(3);
  CVec x(n);
  for (auto& v : x) v = rng.cgaussian();
  const CVec fast = dsp::fft(x);
  for (std::size_t k = 0; k < n; ++k) {
    Complex direct{0.0, 0.0};
    for (std::size_t i = 0; i < n; ++i) {
      const double ang = -kTwoPi * static_cast<double>(k * i) / static_cast<double>(n);
      direct += x[i] * Complex{std::cos(ang), std::sin(ang)};
    }
    EXPECT_NEAR(std::abs(fast[k] - direct), 0.0, 1e-9);
  }
}

TEST(Fft, ConvolveMatchesDirect) {
  Rng rng(5);
  CVec a(23), b(11);
  for (auto& v : a) v = rng.cgaussian();
  for (auto& v : b) v = rng.cgaussian();
  const CVec fast = dsp::fft_convolve(a, b);
  const CVec direct = dsp::convolve(a, b);
  ASSERT_EQ(fast.size(), direct.size());
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(std::abs(fast[i] - direct[i]), 0.0, 1e-9);
}

TEST(Fft, ConvolveEmptyInputReturnsEmpty) {
  // Pins fft_convolve's early return: an empty operand never reaches the
  // plan layer (where next_power_of_two(0) would now throw).
  const CVec a{Complex{1.0, 0.0}, Complex{2.0, 0.0}};
  EXPECT_TRUE(dsp::fft_convolve(a, CVec{}).empty());
  EXPECT_TRUE(dsp::fft_convolve(CVec{}, a).empty());
  EXPECT_TRUE(dsp::fft_convolve(CVec{}, CVec{}).empty());
}

TEST(Fft, RejectsNonPowerOfTwo) {
  EXPECT_THROW(dsp::FftPlan(12), std::logic_error);
  EXPECT_THROW(dsp::FftPlan(0), std::logic_error);
  EXPECT_TRUE(dsp::is_power_of_two(1024));
  EXPECT_FALSE(dsp::is_power_of_two(12));
  EXPECT_EQ(dsp::next_power_of_two(100), 128u);
}

// ---------------------------------------------------------------- FIR

TEST(Fir, StreamingMatchesBlockFilter) {
  Rng rng(7);
  CVec taps(9), x(200);
  for (auto& v : taps) v = rng.cgaussian();
  for (auto& v : x) v = rng.cgaussian();
  dsp::FirFilter fir(taps);
  const CVec streamed = fir.process(x);
  const CVec block = dsp::filter(taps, x);
  ASSERT_EQ(streamed.size(), block.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(streamed[i] - block[i]), 0.0, 1e-10);
}

TEST(Fir, ImpulseRecoversTaps) {
  CVec taps{{1.0, 0.5}, {-0.3, 0.1}, {0.0, -0.7}};
  CVec impulse(8, Complex{});
  impulse[0] = 1.0;
  const CVec y = dsp::filter(taps, impulse);
  for (std::size_t i = 0; i < taps.size(); ++i)
    EXPECT_NEAR(std::abs(y[i] - taps[i]), 0.0, 1e-12);
  for (std::size_t i = taps.size(); i < y.size(); ++i)
    EXPECT_NEAR(std::abs(y[i]), 0.0, 1e-12);
}

TEST(Fir, ResetClearsState) {
  CVec taps{{1.0, 0.0}, {1.0, 0.0}};
  dsp::FirFilter fir(taps);
  fir.push({5.0, 0.0});
  fir.reset();
  EXPECT_NEAR(std::abs(fir.push({1.0, 0.0}) - Complex{1.0, 0.0}), 0.0, 1e-12);
}

TEST(Fir, FreqResponseOfDelayIsLinearPhase) {
  CVec taps(4, Complex{});
  taps[3] = 1.0;  // pure 3-sample delay
  for (const double f : {0.05, 0.1, 0.2}) {
    const Complex h = dsp::freq_response(taps, f);
    EXPECT_NEAR(std::abs(h), 1.0, 1e-12);
    EXPECT_NEAR(std::arg(h), std::remainder(-kTwoPi * f * 3.0, kTwoPi), 1e-9);
  }
}

TEST(Fir, ConvolveCommutes) {
  Rng rng(8);
  CVec a(12), b(7);
  for (auto& v : a) v = rng.cgaussian();
  for (auto& v : b) v = rng.cgaussian();
  const CVec ab = dsp::convolve(a, b);
  const CVec ba = dsp::convolve(b, a);
  ASSERT_EQ(ab.size(), ba.size());
  for (std::size_t i = 0; i < ab.size(); ++i)
    EXPECT_NEAR(std::abs(ab[i] - ba[i]), 0.0, 1e-10);
}

// ---------------------------------------------- fractional delay

class FractionalDelays : public ::testing::TestWithParam<double> {};

TEST_P(FractionalDelays, DelaysAToneByTheRightPhase) {
  // Accuracy regime: the causal design needs `delay >= half_width` so the
  // full two-sided sinc fits (callers like the SI alignment grid guarantee
  // this). half_width = 6 here.
  const double d = GetParam();
  const double f_norm = 0.11;  // in-band tone
  const std::size_t n = 256;
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * f_norm * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec y = dsp::delay_signal(x, d, /*half_width=*/6);
  const Complex expect = std::exp(Complex(0.0, -kTwoPi * f_norm * d));
  for (std::size_t i = 80; i < 180; ++i) {
    const Complex ratio = y[i] / x[i];
    EXPECT_NEAR(std::abs(ratio - expect), 0.0, 0.02) << "delay " << d << " at " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, FractionalDelays,
                         ::testing::Values(0.0, 6.25, 7.5, 9.3, 12.75, 20.5));

TEST(FractionalDelay, IntegerDelayIsExact) {
  const CVec taps = dsp::design_fractional_delay(3.0);
  ASSERT_EQ(taps.size(), 4u);
  EXPECT_NEAR(std::abs(taps[3] - Complex{1.0, 0.0}), 0.0, 1e-12);
}

TEST(FractionalDelay, SubSampleDelayWithoutLeadIsDegraded) {
  // Documented limitation: a fractional delay < half_width truncates the
  // anti-causal sinc side and loses accuracy — this is the same physics
  // that forces FF's digital canceller to be "slightly longer" (Sec. 3.3).
  const double f_norm = 0.11;
  CVec x(256);
  for (std::size_t i = 0; i < 256; ++i) {
    const double ang = kTwoPi * f_norm * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec y = dsp::delay_signal(x, 0.5, /*half_width=*/6);
  const Complex expect = std::exp(Complex(0.0, -kTwoPi * f_norm * 0.5));
  double worst = 0.0;
  for (std::size_t i = 80; i < 180; ++i)
    worst = std::max(worst, std::abs(y[i] / x[i] - expect));
  EXPECT_GT(worst, 0.02);  // visibly imperfect...
  EXPECT_LT(worst, 0.6);   // ...but not nonsense
}

// ---------------------------------------------------------- correlation

TEST(Correlation, FindsEmbeddedSequence) {
  Rng rng(11);
  const CVec ref = dsp::pn_signature(1, 63);
  CVec x = dsp::awgn(rng, 400, 0.01);
  for (std::size_t i = 0; i < ref.size(); ++i) x[137 + i] += ref[i];
  const auto corr = dsp::normalized_correlation(x, ref);
  EXPECT_EQ(dsp::argmax(corr), 137u);
  EXPECT_GT(corr[137], 0.9);
}

TEST(Correlation, NormalizedIsScaleInvariant) {
  Rng rng(12);
  const CVec ref = dsp::pn_signature(2, 31);
  CVec x = dsp::awgn(rng, 200, 0.01);
  for (std::size_t i = 0; i < ref.size(); ++i) x[50 + i] += ref[i];
  auto c1 = dsp::normalized_correlation(x, ref);
  CVec scaled = x;
  dsp::scale(scaled, 42.0);
  auto c2 = dsp::normalized_correlation(scaled, ref);
  for (std::size_t i = 0; i < c1.size(); ++i) EXPECT_NEAR(c1[i], c2[i], 1e-9);
}

TEST(Correlation, MeanPowerDbRoundTrips) {
  Rng rng(13);
  const CVec x = dsp::awgn_dbm(rng, 50000, -37.0);
  EXPECT_NEAR(dsp::mean_power_db(x), -37.0, 0.2);
}

TEST(Correlation, EvmOfIdenticalSignalsIsZero) {
  Rng rng(14);
  const CVec x = dsp::awgn(rng, 64, 1.0);
  EXPECT_NEAR(dsp::evm_power_ratio(x, x), 0.0, 1e-15);
}

// ---------------------------------------------------------- sequences

TEST(Sequence, ScramblerLfsrHasFullPeriod) {
  auto lfsr = dsp::Lfsr::scrambler(0x5D);
  const auto first = lfsr.bits(127);
  const auto second = lfsr.bits(127);
  EXPECT_EQ(first, second);  // period 127
  // Not all zeros / not all ones.
  int sum = 0;
  for (const auto b : first) sum += b;
  EXPECT_GT(sum, 40);
  EXPECT_LT(sum, 90);
}

TEST(Sequence, DistinctClientsHaveLowCrossCorrelation) {
  const std::size_t len = 80;
  for (std::uint32_t a = 1; a <= 4; ++a) {
    for (std::uint32_t b = a + 1; b <= 4; ++b) {
      const CVec sa = dsp::pn_signature(a, len);
      const CVec sb = dsp::pn_signature(b, len);
      Complex acc{0.0, 0.0};
      for (std::size_t i = 0; i < len; ++i) acc += std::conj(sa[i]) * sb[i];
      EXPECT_LT(std::abs(acc) / static_cast<double>(len), 0.35)
          << "clients " << a << "," << b;
    }
  }
}

TEST(Sequence, SignatureIsDeterministic) {
  EXPECT_EQ(dsp::pn_signature(7, 64), dsp::pn_signature(7, 64));
}

// ---------------------------------------------------------- noise

TEST(Noise, SetMeanPowerIsExact) {
  Rng rng(15);
  CVec x = dsp::awgn(rng, 1000, 3.7);
  dsp::set_mean_power(x, 0.5);
  EXPECT_NEAR(dsp::mean_power(x), 0.5, 1e-12);
}

TEST(Noise, AwgnPowerIsCalibrated) {
  Rng rng(16);
  const CVec x = dsp::awgn(rng, 100000, 2.0);
  EXPECT_NEAR(dsp::mean_power(x), 2.0, 0.05);
}

TEST(Noise, AccumulateAdds) {
  CVec a{{1.0, 0.0}, {2.0, 0.0}};
  const CVec b{{0.5, 1.0}, {-1.0, 0.0}};
  dsp::accumulate(a, b);
  EXPECT_NEAR(std::abs(a[0] - Complex{1.5, 1.0}), 0.0, 1e-15);
  EXPECT_NEAR(std::abs(a[1] - Complex{1.0, 0.0}), 0.0, 1e-15);
}

// ---------------------------------------------------------- resampling

TEST(Resample, UpDownRoundTripRecoversSignal) {
  Rng rng(17);
  // Band-limited input: OFDM-like white sequence is full band, so first
  // smooth it slightly to stay inside the interpolator's passband.
  CVec x = dsp::awgn(rng, 600, 1.0);
  const CVec smooth{{0.25, 0.0}, {0.5, 0.0}, {0.25, 0.0}};
  x = dsp::filter(smooth, x);

  const std::size_t factor = 4;
  const CVec up = dsp::upsample(x, factor);
  ASSERT_EQ(up.size(), x.size() * factor);
  const CVec down = dsp::downsample(up, factor);
  ASSERT_EQ(down.size(), x.size());

  // The round trip delays by 2 * group_delay / factor low-rate samples.
  const std::size_t delay = 2 * dsp::resample_group_delay(factor) / factor;
  double err = 0.0, sig = 0.0;
  for (std::size_t i = 100; i + delay < x.size() - 100; ++i) {
    err += std::norm(down[i + delay] - x[i]);
    sig += std::norm(x[i]);
  }
  EXPECT_LT(10.0 * std::log10(err / sig), -25.0);
}

TEST(Resample, PreservesInBandTone) {
  const std::size_t n = 512;
  const double f = 0.08;  // cycles per low-rate sample
  CVec x(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double ang = kTwoPi * f * static_cast<double>(i);
    x[i] = {std::cos(ang), std::sin(ang)};
  }
  const CVec up = dsp::upsample(x, 4);
  // The upsampled tone should be at f/4 with amplitude ~1 in steady state.
  for (std::size_t i = 300; i < 1500; ++i)
    EXPECT_NEAR(std::abs(up[i]), 1.0, 0.03);
}

TEST(Resample, FactorOneIsIdentity) {
  Rng rng(18);
  const CVec x = dsp::awgn(rng, 32, 1.0);
  const CVec up = dsp::upsample(x, 1);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(up[i], x[i]);
}

TEST(Resample, FactorOneDownsampleIsIdentity) {
  Rng rng(19);
  const CVec x = dsp::awgn(rng, 32, 1.0);
  const CVec down = dsp::downsample(x, 1);
  ASSERT_EQ(down.size(), x.size());
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_EQ(down[i], x[i]);
}

TEST(Resample, SingleSampleInputZeroStuffs) {
  // One input sample still produces exactly `factor` output samples. The
  // causal interpolation filter delays the kernel peak past the output
  // window, so all that is visible is the kernel's leading (near-zero)
  // taps scaled by the sample — finite and bounded by the input, never a
  // surprise length or an out-of-range read.
  const std::size_t factor = 4;
  const CVec x{Complex{2.0, -1.0}};
  const CVec up = dsp::upsample(x, factor);
  ASSERT_EQ(up.size(), factor);
  for (const auto& v : up) {
    EXPECT_TRUE(std::isfinite(v.real()) && std::isfinite(v.imag()));
    EXPECT_LE(std::abs(v), std::abs(x[0]) * 1.1);
  }
}

TEST(Resample, SingleSampleRoundTrip) {
  const CVec x{Complex{1.0, 1.0}};
  const CVec down = dsp::downsample(dsp::upsample(x, 2), 2);
  ASSERT_EQ(down.size(), 1u);
  EXPECT_TRUE(std::isfinite(down[0].real()) && std::isfinite(down[0].imag()));
}

TEST(Resample, EmptyInputStaysEmpty) {
  EXPECT_TRUE(dsp::upsample(CVec{}, 4).empty());
  EXPECT_TRUE(dsp::downsample(CVec{}, 4).empty());
}

// The resamplers as they were before decimation and polyphase: filter every
// high-rate sample with zero history and one axpy per tap (the old
// fir_core), then keep every factor-th output, or filter the zero-stuffed
// input. The new ones must match them bit for bit, specials included.
CVec filter_by_axpy(CSpan h, CSpan x) {
  const std::size_t hist = h.size() - 1;
  CVec ext(hist + x.size()), y(x.size());
  std::copy(x.begin(), x.end(), ext.begin() + static_cast<std::ptrdiff_t>(hist));
  for (std::size_t k = 0; k < h.size(); ++k)
    dsp::kernels::axpy(h[k], CSpan{ext.data() + (hist - k), x.size()}, y);
  return y;
}

CVec upsample_by_stuffing(CSpan x, std::size_t factor) {
  if (factor == 1) return CVec(x.begin(), x.end());
  CVec stuffed(x.size() * factor, Complex{});
  for (std::size_t i = 0; i < x.size(); ++i) stuffed[i * factor] = x[i];
  return filter_by_axpy(dsp::resample_kernel(factor, 12), stuffed);
}

CVec downsample_by_picking(CSpan x, std::size_t factor) {
  if (factor == 1) return CVec(x.begin(), x.end());
  const CVec filtered = filter_by_axpy(dsp::resample_kernel(factor, 12), x);
  CVec out(x.size() / factor);
  for (std::size_t i = 0; i < out.size(); ++i)
    out[i] = filtered[i * factor] / static_cast<double>(factor);
  return out;
}

bool same_bits(CSpan a, CSpan b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0);
}

// Bitwise equal, except that a NaN matches any NaN.
bool same_bits_any_nan(CSpan a, CSpan b) {
  if (a.size() != b.size()) return false;
  const auto same = [](double u, double v) {
    return (std::isnan(u) && std::isnan(v)) || std::memcmp(&u, &v, sizeof u) == 0;
  };
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same(a[i].real(), b[i].real()) || !same(a[i].imag(), b[i].imag())) return false;
  return true;
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kTiny = std::numeric_limits<double>::denorm_min();

// Gaussian samples with `specials` planted every 41 samples from index 3.
CVec resampler_input(std::size_t n, std::uint64_t seed, std::span<const Complex> specials) {
  Rng rng(seed);
  CVec x = dsp::awgn(rng, n, 1.0);
  std::size_t s = 0;
  for (std::size_t i = 3; i < n; i += 41) x[i] = specials[s++ % specials.size()];
  return x;
}

template <typename Same>
void expect_resamplers_match(std::span<const Complex> specials, Same&& same) {
  for (const std::size_t factor : {1, 2, 3, 4}) {
    for (const std::size_t n : {0, 1, 2, 5, 7, 38, 101, 257, 1001}) {
      const CVec x = resampler_input(n, 1000 * factor + n, specials);
      EXPECT_TRUE(same(dsp::upsample(x, factor), upsample_by_stuffing(x, factor)))
          << "upsample factor=" << factor << " n=" << n;
      EXPECT_TRUE(same(dsp::downsample(x, factor), downsample_by_picking(x, factor)))
          << "downsample factor=" << factor << " n=" << n;
    }
  }
}

// -0 and subnormals among Gaussian samples: every output bit equal.
TEST(Resample, MatchesFilterEveryOutputBitForBit) {
  const Complex specials[] = {{-0.0, -0.0}, {0.0, -0.0}, {kTiny, -3.0 * kTiny},
                              {1e-310, 0.5}, {-0.0, 1e-315}};
  expect_resamplers_match(specials, same_bits);
}

// +-Inf and NaN as well: NaN exactly where the filter-everything path has
// NaN, every other bit equal. Which NaN encoding an output carries is not
// pinned by the kernel layer, in either path: Inf * 0 and Inf - Inf give a
// negative default NaN, the SSE2 tier subtracts by flipping the sign bit
// (which flips a NaN's sign too), and when two NaNs meet in one add x86
// returns the first operand's, whose place the compiler picks. The old path
// gave different bytes in its own scalar and SSE2 tiers on these inputs.
TEST(Resample, MatchesFilterEveryOutputWithInfAndNaN) {
  const Complex specials[] = {{kInf, 0.0}, {-0.0, kTiny}, {-kInf, 1.0}, {kNaN, 0.0},
                              {0.25, -kInf}, {1.0, kNaN}, {-0.0, -0.0}};
  expect_resamplers_match(specials, same_bits_any_nan);
}

// Signals made only of specials: every output touches one.
TEST(Resample, MatchesFilterEveryOutputOnSpecialsOnly) {
  const CVec finite[] = {
      CVec(50, Complex{-0.0, -0.0}),
      CVec(50, Complex{kTiny, -kTiny}),
      CVec{{-0.0, 0.0}, {0.0, -0.0}, {kTiny, 0.0}},
      CVec{{1.0, -1.0}},
  };
  const CVec non_finite[] = {
      CVec{{kInf, 0.0}, {0.0, 0.0}, {0.0, -0.0}, {1.0, 1.0}, {-0.0, 2.0}},
      CVec{{-0.0, 0.0}, {kNaN, kNaN}, {-0.0, -0.0}},
      CVec{{kNaN, kInf}, {-kInf, kNaN}},
  };
  for (const std::size_t factor : {2, 3, 4}) {
    for (const CVec& x : finite) {
      EXPECT_TRUE(same_bits(dsp::upsample(x, factor), upsample_by_stuffing(x, factor)))
          << "upsample factor=" << factor << " n=" << x.size();
      EXPECT_TRUE(same_bits(dsp::downsample(x, factor), downsample_by_picking(x, factor)))
          << "downsample factor=" << factor << " n=" << x.size();
    }
    for (const CVec& x : non_finite) {
      EXPECT_TRUE(same_bits_any_nan(dsp::upsample(x, factor), upsample_by_stuffing(x, factor)))
          << "upsample factor=" << factor << " n=" << x.size();
      EXPECT_TRUE(
          same_bits_any_nan(dsp::downsample(x, factor), downsample_by_picking(x, factor)))
          << "downsample factor=" << factor << " n=" << x.size();
    }
  }
}

TEST(Fir, ProcessIntoMatchesProcessAndSupportsAliasing) {
  Rng rng(31);
  CVec taps(7), x(100);
  for (auto& v : taps) v = rng.cgaussian();
  for (auto& v : x) v = rng.cgaussian();

  dsp::FirFilter a(taps), b(taps);
  const CVec expected = a.process(x);
  CVec inplace = x;
  b.process_into(inplace, inplace);  // out aliases the input
  EXPECT_EQ(inplace, expected);

  dsp::FirFilter c(taps);
  CVec wrong(x.size() + 1);
  EXPECT_THROW(c.process_into(x, wrong), std::logic_error);
}

// Seeded draw of `n` complex samples at the sample type C.
template <typename C>
std::vector<C> draw(Rng& rng, std::size_t n) {
  std::vector<C> v(n);
  for (auto& x : v) {
    const Complex d = rng.cgaussian();
    x = {static_cast<typename C::value_type>(d.real()),
         static_cast<typename C::value_type>(d.imag())};
  }
  return v;
}

// push() one sample at a time and process_into() at any block size give the
// same bits: both accumulate taps ascending with the textbook product.
template <typename T>
void check_push_matches_process_into() {
  using C = std::complex<T>;
  using Filter = dsp::FirFilter<T>;
  Rng rng(32);
  const std::vector<C> taps = draw<C>(rng, 9);
  const std::vector<C> x = draw<C>(rng, 600);
  Filter ref(taps);
  std::vector<C> want(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) want[i] = ref.push(x[i]);
  for (const std::size_t block : {1, 3, 64, 256}) {
    Filter fir(taps);
    dsp::kernels::Workspace ws;
    std::vector<C> got = x;
    for (std::size_t i = 0; i < got.size(); i += block) {
      const std::size_t n = std::min(block, got.size() - i);
      std::span<C> seg{got.data() + i, n};
      fir.process_into(seg, seg, ws);
    }
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), x.size() * sizeof(C)))
        << "block=" << block;
  }
}

TEST(Fir, PushMatchesProcessIntoAtAnyBlockSize) {
  check_push_matches_process_into<double>();
  check_push_matches_process_into<float>();
}

template <typename T>
void check_set_taps_preserves_history(double tol) {
  using C = std::complex<T>;
  using Filter = dsp::FirFilter<T>;
  using std::abs;
  Rng rng(33);
  const std::vector<C> x = draw<C>(rng, 10);
  const std::vector<C> taps4{{1.0, 0.0}, {0.5, 0.0}, {-0.25, 0.0}, {0.0, 0.5}};
  const std::vector<C> taps6 = draw<C>(rng, 6);

  // Grow mid-stream: the most recent 4 inputs must survive into the new
  // 6-deep delay line (older history zero-padded).
  Filter fir(taps4);
  for (const C s : x) fir.push(s);
  fir.set_taps(taps6);
  const C next{0.7, -0.3};
  const C y = fir.push(next);
  C expected = taps6[0] * next;
  for (std::size_t k = 1; k <= 4; ++k) expected += taps6[k] * x[x.size() - k];
  // taps6[5] multiplies zero-padded (forgotten) history.
  EXPECT_NEAR(abs(y - expected), 0.0, tol);

  // Shrink: only the most recent 2 inputs remain relevant.
  Filter shrink(taps6);
  for (const C s : x) shrink.push(s);
  shrink.set_taps(std::vector<C>{{1.0, 0.0}, {0.0, 1.0}});
  const C y2 = shrink.push(next);
  EXPECT_NEAR(abs(y2 - (next + C{0.0, 1.0} * x.back())), 0.0, tol);

  // Same-size retune never touches the delay line.
  Filter same(taps4);
  for (const C s : x) same.push(s);
  Filter ref(taps4);
  for (const C s : x) ref.push(s);
  std::vector<C> taps4b = taps4;
  taps4b[2] = C{2.0, 0.0};
  same.set_taps(taps4b);
  C expected_same = ref.push(next) + (taps4b[2] - taps4[2]) * x[x.size() - 2];
  EXPECT_NEAR(abs(same.push(next) - expected_same), 0.0, tol);
}

TEST(Fir, SetTapsPreservesHistoryAcrossResize) {
  check_set_taps_preserves_history<double>(1e-12);
  check_set_taps_preserves_history<float>(1e-5);
}

}  // namespace
}  // namespace ff
