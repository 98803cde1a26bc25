// Tests for the FastForward relay core: CNF filter design (SISO + MIMO),
// the analog rotator, the digital/analog split, amplification control, the
// forward pipeline and the channel book.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "channel/cfo.hpp"
#include "channel/multipath.hpp"
#include "common/rng.hpp"
#include "common/units.hpp"
#include "dsp/fir.hpp"
#include "dsp/noise.hpp"
#include "phy/params.hpp"
#include "relay/amplification.hpp"
#include "relay/analog_cnf.hpp"
#include "relay/channel_book.hpp"
#include "relay/cnf_design.hpp"
#include "relay/design.hpp"
#include "relay/digital_prefilter.hpp"
#include "relay/pipeline.hpp"

namespace ff {
namespace {

CVec random_unit_responses(Rng& rng, std::size_t n) {
  CVec out(n);
  for (auto& v : out) v = rng.unit_phasor() * rng.uniform(0.5, 1.5);
  return out;
}

// ---------------------------------------------------------- SISO CNF

TEST(CnfSiso, IdealFilterAlignsEverySubcarrier) {
  Rng rng(1);
  const std::size_t n = 56;
  const CVec h_sd = random_unit_responses(rng, n);
  const CVec h_sr = random_unit_responses(rng, n);
  const CVec h_rd = random_unit_responses(rng, n);
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(std::abs(f[i]), 1.0, 1e-12);  // pure rotation
    const Complex relayed = h_rd[i] * f[i] * h_sr[i];
    // Aligned: the relayed term's phase matches the direct term's.
    EXPECT_NEAR(std::remainder(std::arg(relayed) - std::arg(h_sd[i]), kTwoPi), 0.0, 1e-9);
  }
}

TEST(CnfSiso, CombinedMagnitudeIsCoherentSum) {
  Rng rng(2);
  const std::size_t n = 56;
  const CVec h_sd = random_unit_responses(rng, n);
  const CVec h_sr = random_unit_responses(rng, n);
  const CVec h_rd = random_unit_responses(rng, n);
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const double a = 2.0;
  const CVec combined = relay::combined_channel_siso(h_sd, h_sr, h_rd, f, a);
  for (std::size_t i = 0; i < n; ++i) {
    const double expect = std::abs(h_sd[i]) + a * std::abs(h_rd[i] * h_sr[i]);
    EXPECT_NEAR(std::abs(combined[i]), expect, 1e-9);
  }
}

TEST(CnfSiso, WithoutFilterCombiningCanBeDestructive) {
  // The Fig. 5 contrast: pick channels where the un-filtered relayed path
  // opposes the direct one.
  const CVec h_sd{Complex{1.0, 0.0}};
  const CVec h_sr{Complex{1.0, 0.0}};
  const CVec h_rd{Complex{-0.9, 0.0}};  // opposite phase
  const CVec no_filter{Complex{1.0, 0.0}};
  const CVec destructive = relay::combined_channel_siso(h_sd, h_sr, h_rd, no_filter, 1.0);
  EXPECT_NEAR(std::abs(destructive[0]), 0.1, 1e-12);
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const CVec constructive = relay::combined_channel_siso(h_sd, h_sr, h_rd, f, 1.0);
  EXPECT_NEAR(std::abs(constructive[0]), 1.9, 1e-12);
}

TEST(CnfSiso, DeadDirectPathStillGetsRelayedPower) {
  const CVec h_sd{Complex{0.0, 0.0}};
  const CVec h_sr{Complex{0.5, 0.5}};
  const CVec h_rd{Complex{0.0, -0.7}};
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const CVec combined = relay::combined_channel_siso(h_sd, h_sr, h_rd, f, 1.0);
  EXPECT_NEAR(std::abs(combined[0]), std::abs(h_sr[0] * h_rd[0]), 1e-12);
}

// ---------------------------------------------------------- MIMO CNF

TEST(CnfMimo, UnitaryParameterizationIsUnitary) {
  Rng rng(3);
  for (const std::size_t k : {1u, 2u, 3u}) {
    std::vector<double> params(relay::unitary_param_count(k));
    for (auto& p : params) p = rng.uniform(-3.0, 3.0);
    const auto u = relay::unitary_from_params(params, k);
    const auto gram = u.adjoint() * u;
    EXPECT_NEAR((gram - linalg::Matrix::identity(k)).frobenius(), 0.0, 1e-10) << k;
  }
}

TEST(CnfMimo, BeatsIdentityFilter) {
  Rng rng(4);
  for (int trial = 0; trial < 6; ++trial) {
    linalg::Matrix h_sd(2, 2), h_sr(2, 2), h_rd(2, 2);
    for (std::size_t i = 0; i < 2; ++i)
      for (std::size_t j = 0; j < 2; ++j) {
        h_sd(i, j) = rng.cgaussian();
        h_sr(i, j) = rng.cgaussian();
        h_rd(i, j) = rng.cgaussian();
      }
    const auto r = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0);
    const auto identity_combined =
        relay::combined_channel_mimo(h_sd, h_sr, h_rd, linalg::Matrix::identity(2), 1.0);
    const double identity_det = std::abs(linalg::determinant(identity_combined));
    EXPECT_GE(r.objective, identity_det - 1e-6) << "trial " << trial;
    EXPECT_GE(r.objective, r.baseline - 1e-6) << "trial " << trial;
  }
}

TEST(CnfMimo, RestoresRankOfKeyholeDirectChannel) {
  Rng rng(5);
  // Rank-1 direct channel (pinhole), full-rank relay legs.
  linalg::Matrix u(2, 1), v(2, 1), h_sr(2, 2), h_rd(2, 2);
  u(0, 0) = rng.cgaussian();
  u(1, 0) = rng.cgaussian();
  v(0, 0) = rng.cgaussian();
  v(1, 0) = rng.cgaussian();
  const linalg::Matrix h_sd = u * v.adjoint();
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      h_sr(i, j) = rng.cgaussian();
      h_rd(i, j) = rng.cgaussian();
    }
  EXPECT_EQ(linalg::rank(h_sd, 1e-9), 1u);
  const auto r = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 0.8);
  const auto combined = relay::combined_channel_mimo(h_sd, h_sr, h_rd, r.filter, 0.8);
  EXPECT_EQ(linalg::rank(combined, 1e-6), 2u);
  EXPECT_GT(r.objective, 10.0 * r.baseline);  // |det| lifted well off ~0
}

TEST(CnfMimo, WarmStartMatchesColdQuality) {
  Rng rng(6);
  linalg::Matrix h_sd(2, 2), h_sr(2, 2), h_rd(2, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      h_sd(i, j) = rng.cgaussian();
      h_sr(i, j) = rng.cgaussian();
      h_rd(i, j) = rng.cgaussian();
    }
  const auto cold = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0);
  // Perturb the channels slightly (adjacent subcarrier) and warm start.
  h_sd(0, 0) += Complex{0.01, 0.01};
  const auto cold2 = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0);
  const auto warm = relay::cnf_mimo_design(h_sd, h_sr, h_rd, 1.0, &cold.params);
  EXPECT_GE(warm.objective, 0.97 * cold2.objective);
}

// ---------------------------------------------------------- analog CNF

class AnalogRotations : public ::testing::TestWithParam<double> {};

TEST_P(AnalogRotations, SynthesizesTargetPhase) {
  const double theta = GetParam();
  relay::AnalogCnfFilter filter;
  const Complex target{0.8 * std::cos(theta), 0.8 * std::sin(theta)};
  const Complex achieved = filter.tune(target);
  EXPECT_NEAR(std::abs(achieved - target), 0.0, 0.05) << "theta " << theta;
  // Gains are physical: non-negative.
  for (const double g : filter.gains()) EXPECT_GE(g, 0.0);
}

INSTANTIATE_TEST_SUITE_P(FullCircle, AnalogRotations,
                         ::testing::Values(0.0, 0.7, 1.57, 2.5, 3.14, -2.0, -0.9, -3.0));

TEST(AnalogCnf, FrequencyFlatAcrossBand) {
  relay::AnalogCnfFilter filter;
  filter.tune(Complex{0.0, 1.0});
  const Complex centre = filter.response(0.0);
  for (const double f : {-10e6, -5e6, 5e6, 10e6}) {
    const Complex edge = filter.response(f);
    // ~1 degree of variation across +-10 MHz (300 ps of tap delay)...
    EXPECT_LT(std::abs(std::arg(edge / centre)), rad_from_deg(1.5));
  }
}

TEST(AnalogCnf, DelayBudgetIsSubNanosecond) {
  relay::AnalogCnfFilter filter;
  filter.tune(Complex{-0.5, -0.5});
  EXPECT_LE(filter.max_delay_s(), 0.4e-9);
}

// ---------------------------------------------------------- CNF split

TEST(CnfSplit, ApproximatesSmoothSelectiveTarget) {
  // A frequency-selective target (different rotation per subcarrier) needs
  // the digital pre-filter; the analog stage alone cannot follow it.
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  CVec target(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double phase = 1.2 * std::sin(kTwoPi * freqs[i] / 20e6) + 0.4;
    target[i] = {std::cos(phase), std::sin(phase)};
  }
  const auto split = relay::design_cnf_split(target, freqs);
  const auto analog_only = relay::design_analog_only(target, freqs);
  EXPECT_LT(split.error_db, -7.0);
  EXPECT_LT(split.error_db, analog_only.error_db - 4.0);
}

TEST(CnfSplit, FlatTargetNeedsOnlyAnalog) {
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  const CVec target(freqs.size(), Complex{0.6, -0.6});
  const auto analog_only = relay::design_analog_only(target, freqs);
  EXPECT_LT(analog_only.error_db, -20.0);
}

TEST(CnfSplit, PrefilterDelayWithinBudget) {
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  Rng rng(7);
  const CVec target = random_unit_responses(rng, freqs.size());
  relay::CnfSplitConfig cfg;
  const auto split = relay::design_cnf_split(target, freqs, cfg);
  // 4 taps at 80 Msps: 37.5 ns of delay spread, within the 50 ns budget.
  EXPECT_LE(split.prefilter_delay_s(cfg.sample_rate_hz), 50e-9);
  EXPECT_EQ(split.prefilter.size(), 4u);
}

TEST(CnfSplit, TapEnergyStaysBounded) {
  // The dynamic-range constraint: even for adversarial (ramped) targets the
  // fit must not blow up the tap gains.
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  CVec target(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double phase = kTwoPi * freqs[i] * 150e-9;  // steep advance ramp
    target[i] = {std::cos(phase), std::sin(phase)};
  }
  const auto split = relay::design_cnf_split(target, freqs);
  double energy = 0.0;
  for (const Complex t : split.prefilter) energy += std::norm(t);
  EXPECT_LT(energy, 200.0);
}

TEST(CnfSplit, ChainDelayToleranceMatchesOversampling) {
  // The design insight reproduced as a property: at the prototype's 80 Msps
  // the 4-tap pre-filter absorbs the ~50 ns ADC/DAC delay ramp; at critical
  // (20 Msps) sampling it cannot.
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  CVec target(freqs.size());
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double phase = kTwoPi * freqs[i] * 50e-9;
    target[i] = {std::cos(phase), std::sin(phase)};
  }
  relay::CnfSplitConfig oversampled;  // 80 Msps default
  relay::CnfSplitConfig critical;
  critical.sample_rate_hz = 20e6;
  const auto good = relay::design_cnf_split(target, freqs, oversampled);
  const auto bad = relay::design_cnf_split(target, freqs, critical);
  EXPECT_LT(good.error_db, bad.error_db - 3.0);
}

// ---------------------------------------------------------- amplification

TEST(Amplification, PaperSectionThreeFiveExample) {
  // Sec. 3.5: relay-destination attenuation 80 dB => maximum amplification
  // 77 dB; relayed noise lands below the destination floor.
  const auto d = relay::decide_amplification(/*cancellation=*/110.0,
                                             /*rd_attenuation=*/80.0,
                                             /*rx_power_dbm=*/-70.0);
  EXPECT_NEAR(d.noise_limit_db, 77.0, 1e-12);
  EXPECT_TRUE(d.noise_limited);
  EXPECT_NEAR(d.gain_db, 77.0, 1e-12);
  // Relay noise (-90 dBm) + 77 dB - 80 dB = -93 dBm < -90 dBm floor.
  EXPECT_LT(-90.0 + d.gain_db - 80.0, -90.0);
}

TEST(Amplification, CancellationCapsGain) {
  const auto d = relay::decide_amplification(/*cancellation=*/60.0,
                                             /*rd_attenuation=*/120.0,
                                             /*rx_power_dbm=*/-80.0);
  EXPECT_NEAR(d.gain_db, 54.0, 1e-12);  // 60 - 6 margin
  EXPECT_FALSE(d.noise_limited);
}

TEST(Amplification, TxPowerCapsGain) {
  const auto d = relay::decide_amplification(110.0, 120.0, /*rx_power_dbm=*/-30.0);
  EXPECT_NEAR(d.gain_db, 50.0, 1e-12);  // 20 dBm ceiling - (-30)
}

TEST(Amplification, BlindRepeaterIgnoresNoiseRule) {
  const auto blind = relay::decide_amplification_blind(110.0, /*rx=*/-70.0);
  const auto smart = relay::decide_amplification(110.0, /*a=*/60.0, /*rx=*/-70.0);
  EXPECT_GT(blind.gain_db, smart.gain_db);
  EXPECT_NEAR(blind.gain_db, 90.0, 1e-12);  // power-limited: 20 - (-70)
}

TEST(Amplification, NeverNegative) {
  const auto d = relay::decide_amplification(10.0, 5.0, 30.0);
  EXPECT_GE(d.gain_db, 0.0);
}

// ---------------------------------------------------------- pipeline

TEST(Pipeline, AppliesGainRotationAndDelay) {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 80e6;
  cfg.adc_dac_delay_samples = 3;
  cfg.gain_db = 20.0;
  cfg.analog_rotation = Complex{0.0, 1.0};
  relay::ForwardPipeline pipe(cfg);
  CVec x(20, Complex{});
  x[0] = {1.0, 0.0};
  const CVec y = pipe.process(x);
  // Impulse appears 3 samples later, scaled by 10 and rotated 90 degrees.
  for (std::size_t i = 0; i < y.size(); ++i) {
    if (i == 3)
      EXPECT_NEAR(std::abs(y[i] - Complex{0.0, 10.0}), 0.0, 1e-9);
    else
      EXPECT_NEAR(std::abs(y[i]), 0.0, 1e-9);
  }
}

TEST(Pipeline, CfoRemoveRestoreRoundTrips) {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 80e6;
  cfg.adc_dac_delay_samples = 1;
  cfg.cfo_hz = 25e3;
  relay::ForwardPipeline with_cfo(cfg);
  cfg.cfo_hz = 0.0;
  relay::ForwardPipeline without(cfg);

  Rng rng(8);
  const CVec x = dsp::awgn(rng, 200, 1.0);
  const CVec y1 = with_cfo.process(x);
  const CVec y2 = without.process(x);
  // Remove-then-restore at the same rate is a fixed phase offset (from the
  // one-sample pipeline delay), not a frequency shift.
  Complex ratio_acc{0.0, 0.0};
  for (std::size_t i = 5; i < 200; ++i) ratio_acc += y1[i] / y2[i];
  ratio_acc /= 195.0;
  for (std::size_t i = 5; i < 200; ++i)
    EXPECT_NEAR(std::abs(y1[i] / y2[i] - ratio_acc), 0.0, 1e-6);
}

TEST(Pipeline, MaxDelayAccountsPrefilterSpread) {
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 80e6;
  cfg.adc_dac_delay_samples = 4;   // 50 ns
  cfg.extra_buffer_samples = 8;    // 100 ns
  cfg.prefilter = CVec(4, Complex{0.5, 0.0});  // 3 taps of spread = 37.5 ns
  relay::ForwardPipeline pipe(cfg);
  EXPECT_NEAR(pipe.max_delay_s(), 187.5e-9, 1e-12);
}

TEST(Pipeline, ResetRestoresInitialState) {
  relay::PipelineConfig cfg;
  cfg.adc_dac_delay_samples = 2;
  relay::ForwardPipeline pipe(cfg);
  Rng rng(9);
  const CVec x = dsp::awgn(rng, 50, 1.0);
  const CVec y1 = pipe.process(x);
  pipe.reset();
  const CVec y2 = pipe.process(x);
  for (std::size_t i = 0; i < x.size(); ++i)
    EXPECT_NEAR(std::abs(y1[i] - y2[i]), 0.0, 1e-12);
}

// ---------------------------------------------------------- channel book

TEST(ChannelBook, ReadyOnlyWithAllThreeChannels) {
  relay::ChannelBook book(0.2);
  const CVec h(56, Complex{1.0, 0.0});
  EXPECT_FALSE(book.ready(1, 0.0));
  book.update_source_relay(1, h, 0.0);
  book.update_relay_client(1, h, 0.0);
  EXPECT_FALSE(book.ready(1, 0.01));
  book.update_source_client(1, h, 0.0);
  EXPECT_TRUE(book.ready(1, 0.01));
}

TEST(ChannelBook, EstimatesGoStale) {
  relay::ChannelBook book(0.2);
  const CVec h(56, Complex{1.0, 0.0});
  book.update_source_relay(2, h, 0.0);
  book.update_relay_client(2, h, 0.0);
  book.update_source_client(2, h, 0.0);
  EXPECT_TRUE(book.ready(2, 0.1));
  EXPECT_FALSE(book.ready(2, 0.5));  // > 0.2 s old
  // A refresh revives it (the 50 ms sounding cadence, Sec. 4.2).
  book.update_source_client(2, h, 0.45);
  EXPECT_FALSE(book.ready(2, 0.5));  // the other two are still stale
  book.update_source_relay(2, h, 0.45);
  book.update_relay_client(2, h, 0.45);
  EXPECT_TRUE(book.ready(2, 0.5));
}

TEST(ChannelBook, TracksClientsIndependently) {
  relay::ChannelBook book;
  const CVec h(8, Complex{1.0, 0.0});
  book.update_relay_client(1, h, 0.0);
  book.update_relay_client(2, h, 0.0);
  EXPECT_EQ(book.known_clients(), 2u);
  EXPECT_TRUE(book.relay_client(1, 0.05).has_value());
  EXPECT_FALSE(book.source_client(1, 0.05).has_value());
}

// ---------------------------------------------------------- full design

relay::RelayLink synthetic_siso_link(Rng& rng, double sd_gain_db, double sr_gain_db,
                                     double rd_gain_db) {
  const phy::OfdmParams params;
  const double fc = params.carrier_hz;
  channel::MultipathChannel sd({{25e-9, amplitude_from_db(sd_gain_db) * rng.unit_phasor()},
                                {95e-9, amplitude_from_db(sd_gain_db - 8) * rng.unit_phasor()}},
                               fc);
  channel::MultipathChannel sr({{10e-9, amplitude_from_db(sr_gain_db) * rng.unit_phasor()}},
                               fc);
  channel::MultipathChannel rd({{15e-9, amplitude_from_db(rd_gain_db) * rng.unit_phasor()},
                                {70e-9, amplitude_from_db(rd_gain_db - 10) * rng.unit_phasor()}},
                               fc);
  relay::RelayLink link;
  for (const double f : params.used_subcarrier_freqs()) {
    link.h_sd.push_back(linalg::Matrix{{sd.response(f)}});
    link.h_sr.push_back(linalg::Matrix{{sr.response(f)}});
    link.h_rd.push_back(linalg::Matrix{{rd.response(f)}});
  }
  return link;
}

TEST(RelayDesign, FfLiftsDeadZoneSiso) {
  Rng rng(10);
  // Direct path at -105 dB (SNR 5 dB), relay well placed.
  auto link = synthetic_siso_link(rng, -105.0, -85.0, -88.0);
  relay::DesignOptions opts;
  opts.f_grid_hz = phy::OfdmParams{}.used_subcarrier_freqs();
  const auto d = relay::design_ff_relay(link, opts);
  double direct_power = 0.0, eff_power = 0.0;
  for (std::size_t i = 0; i < link.h_sd.size(); ++i) {
    direct_power += std::norm(link.h_sd[i](0, 0));
    eff_power += std::norm(d.h_eff[i](0, 0));
  }
  EXPECT_GT(db_from_power(eff_power / direct_power), 10.0);
  // Relay noise injected at the destination stays near/below the floor
  // (thermal + SI residual doubles the relay's effective noise at C=110 dB,
  // and the noise rule keeps the result within ~3 dB of the floor).
  for (const double n : d.relay_noise_mw) EXPECT_LT(n, power_from_db(-87.0));
}

TEST(RelayDesign, AfUsesHigherGainButInjectsMoreNoise) {
  Rng rng(11);
  auto link = synthetic_siso_link(rng, -105.0, -85.0, -88.0);
  relay::DesignOptions opts;
  opts.f_grid_hz = phy::OfdmParams{}.used_subcarrier_freqs();
  const auto ff = relay::design_ff_relay(link, opts);
  const auto af = relay::design_af_relay(link, opts);
  EXPECT_GE(af.amp.gain_db, ff.amp.gain_db);
  double ff_noise = 0.0, af_noise = 0.0;
  for (std::size_t i = 0; i < link.h_sd.size(); ++i) {
    ff_noise += ff.relay_noise_mw[i];
    af_noise += af.relay_noise_mw[i];
  }
  EXPECT_GT(af_noise, ff_noise);
}

TEST(RelayDesign, SplitErrorReportedForSiso) {
  Rng rng(12);
  auto link = synthetic_siso_link(rng, -95.0, -85.0, -88.0);
  relay::DesignOptions opts;
  opts.f_grid_hz = phy::OfdmParams{}.used_subcarrier_freqs();
  const auto d = relay::design_ff_relay(link, opts);
  EXPECT_LT(d.split_error_db, -5.0);   // realizable to better than -5 dB
  EXPECT_GT(d.split_error_db, -60.0);  // but not magically perfect
}

TEST(Pipeline, ProcessIntoMatchesProcessAndSupportsAliasing) {
  Rng rng(51);
  CVec x(300);
  for (auto& v : x) v = rng.cgaussian();
  relay::PipelineConfig cfg;
  cfg.cfo_hz = 11e3;
  cfg.prefilter = CVec{{0.9, 0.0}, {0.1, -0.2}};
  cfg.gain_db = 10.0;
  relay::ForwardPipeline a(cfg), b(cfg);
  const CVec expected = a.process(x);
  CVec inplace = x;
  b.process_into(inplace, inplace);
  EXPECT_EQ(inplace, expected);
  CVec wrong(x.size() + 3);
  EXPECT_THROW(b.process_into(x, wrong), std::logic_error);
}

// A pushed stream is the same bits as a block-processed one, at either
// precision, with every stage (CFO, prefilter, gain, TX filter, FIFO) live.
TEST(Pipeline, PushMatchesProcessIntoAtBothPrecisions) {
  Rng rng(52);
  CVec x(300);
  for (auto& v : x) v = rng.cgaussian();
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    relay::PipelineConfig cfg;
    cfg.cfo_hz = 11e3;
    cfg.prefilter = CVec{{0.9, 0.0}, {0.1, -0.2}, {0.05, 0.01}};
    cfg.tx_filter = dsp::design_lowpass(9, 0.25);
    cfg.extra_buffer_samples = 3;
    cfg.gain_db = 10.0;
    cfg.precision = precision;
    relay::ForwardPipeline pushed(cfg), blocked(cfg);
    CVec want(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) want[i] = pushed.push(x[i]);
    CVec got = x;
    for (std::size_t i = 0; i < got.size(); i += 64) {
      const CMutSpan block{got.data() + i, std::min<std::size_t>(64, got.size() - i)};
      blocked.process_into(block, block);
    }
    EXPECT_EQ(0, std::memcmp(got.data(), want.data(), x.size() * sizeof(Complex)))
        << to_string(precision);
  }
}

TEST(Pipeline, ResetClearsScrubbedCount) {
  relay::PipelineConfig cfg;
  relay::ForwardPipeline pipe(cfg);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  CVec poisoned(8, Complex{1.0, 0.0});
  poisoned[3] = Complex{nan, 0.0};
  pipe.process(poisoned);
  ASSERT_EQ(pipe.scrubbed_samples(), 1u);
  // A reset pipeline reports like a fresh one — repetitions must not
  // double-count earlier glitches.
  pipe.reset();
  EXPECT_EQ(pipe.scrubbed_samples(), 0u);
  pipe.process(poisoned);
  EXPECT_EQ(pipe.scrubbed_samples(), 1u);
}

// ------------------------------------------------ folded forward path

// The forward path as the five passes ForwardPipeline ran before it was
// folded into one composite FIR: CFO remove, prefilter, CFO restore,
// gain * rotation, TX filter, then the bulk-delay FIFO. Double precision
// throughout; the accuracy reference for the fold.
class FiveStageReference {
 public:
  explicit FiveStageReference(const relay::PipelineConfig& cfg)
      : remove_(-cfg.cfo_hz, cfg.sample_rate_hz),
        restore_(cfg.restore_cfo ? cfg.cfo_hz : 0.0, cfg.sample_rate_hz),
        prefilter_(cfg.prefilter),
        tx_filter_(cfg.tx_filter.empty() ? CVec{Complex{1.0, 0.0}} : cfg.tx_filter),
        gain_rotation_(amplitude_from_db(cfg.gain_db) * cfg.analog_rotation),
        fifo_(cfg.extra_buffer_samples +
                  (cfg.tx_filter.empty() ? cfg.adc_dac_delay_samples : 0),
              Complex{}) {}

  CVec process(CSpan x) {
    CVec y = restore_.process(prefilter_.process(remove_.process(x)));
    for (Complex& v : y) v *= gain_rotation_;
    y = tx_filter_.process(y);
    if (fifo_.empty()) return y;
    for (Complex& v : y) {
      std::swap(v, fifo_[pos_]);
      pos_ = (pos_ + 1) % fifo_.size();
    }
    return y;
  }

 private:
  channel::CfoRotator remove_;
  channel::CfoRotator restore_;
  dsp::FirFilter<> prefilter_;
  dsp::FirFilter<> tx_filter_;
  Complex gain_rotation_;
  CVec fifo_;
  std::size_t pos_ = 0;
};

// A designed-relay-shaped config: 4-tap prefilter, 9-tap TX filter whose
// group delay is the converter latency, 30 dB of gain, a rotation.
relay::PipelineConfig fold_test_config(double cfo_hz, bool restore_cfo, bool tx_filter,
                                       std::size_t extra_buffer, Precision precision) {
  Rng rng(77);
  relay::PipelineConfig cfg;
  cfg.sample_rate_hz = 20e6;
  cfg.adc_dac_delay_samples = 4;
  cfg.extra_buffer_samples = extra_buffer;
  cfg.cfo_hz = cfo_hz;
  cfg.restore_cfo = restore_cfo;
  cfg.prefilter = CVec(4);
  for (Complex& t : cfg.prefilter) t = rng.cgaussian(0.25);
  cfg.analog_rotation = rng.unit_phasor();
  cfg.gain_db = 30.0;
  if (tx_filter) cfg.tx_filter = dsp::design_lowpass(9, 0.17);
  cfg.precision = precision;
  return cfg;
}

struct FoldError {
  double max_rel = 0.0;  // max |fold - ref| / rms(ref)
  double rms_rel = 0.0;  // rms(fold - ref) / rms(ref)
};

// Stream `samples` of white noise through the pipeline and the f64
// five-stage reference in the same (varying) blocks and compare.
FoldError fold_error(const relay::PipelineConfig& cfg, std::size_t samples) {
  relay::PipelineConfig ref_cfg = cfg;
  ref_cfg.precision = Precision::kF64;
  FiveStageReference reference(ref_cfg);
  relay::ForwardPipeline folded(cfg);
  Rng rng(78);
  double err2 = 0.0, ref2 = 0.0, max_err = 0.0;
  CVec x;
  for (std::size_t done = 0, block = 1; done < samples; done += x.size()) {
    block = block * 5 % 4093;  // 5, 25, ..., sweeps sizes up to 4 K
    x.resize(std::min(block, samples - done));
    for (Complex& v : x) v = rng.cgaussian();
    const CVec want = reference.process(x);
    const CVec got = folded.process(x);
    for (std::size_t i = 0; i < x.size(); ++i) {
      const double e = std::abs(got[i] - want[i]);
      err2 += e * e;
      ref2 += std::norm(want[i]);
      max_err = std::max(max_err, e);
    }
  }
  const double ref_rms = std::sqrt(ref2 / static_cast<double>(samples));
  return {max_err / ref_rms, std::sqrt(err2 / static_cast<double>(samples)) / ref_rms};
}

// The fold is exact algebra (remove and restore share one phase), so at
// f64 the composite FIR matches the five passes to rounding: over these
// 16 runs of 512 K samples (1 M per restore x tx x extra combination) the
// worst sample is 1.9e-15 and the rms 3e-16 of the signal rms.
TEST(PipelineFold, CompositeFirMatchesFiveStagesAtF64) {
  for (const bool restore : {true, false})
    for (const bool tx : {false, true})
      for (const std::size_t extra : {std::size_t{0}, std::size_t{7}})
        for (const double cfo : {45e3, -45e3}) {
          const FoldError e =
              fold_error(fold_test_config(cfo, restore, tx, extra, Precision::kF64), 1 << 19);
          EXPECT_LE(e.max_rel, 1e-12) << "restore=" << restore << " tx=" << tx
                                      << " extra=" << extra << " cfo=" << cfo;
        }
}

// At f32 the fold runs one FIR on float samples and taps (plus the f32
// output rotator without restore). Measured against the f64 five-stage
// reference over these runs: worst sample 7.0e-7 and rms 9.2e-8 of the
// signal rms — float's 6e-8 unit roundoff grown over ~12 taps of
// accumulation. Bounded at about three times that.
TEST(PipelineFold, CompositeFirF32TracksF64Reference) {
  for (const bool restore : {true, false})
    for (const bool tx : {false, true})
      for (const std::size_t extra : {std::size_t{0}, std::size_t{7}})
        for (const double cfo : {45e3, -45e3}) {
          const FoldError e =
              fold_error(fold_test_config(cfo, restore, tx, extra, Precision::kF32), 1 << 18);
          EXPECT_LE(e.max_rel, 2e-6) << "restore=" << restore << " tx=" << tx
                                     << " extra=" << extra << " cfo=" << cfo;
          EXPECT_LE(e.rms_rel, 3e-7) << "restore=" << restore << " tx=" << tx
                                     << " extra=" << extra << " cfo=" << cfo;
        }
}

// The folded path keeps the stream contract: the same bits whatever the
// blocking, at both precisions, with and without the output rotator.
TEST(PipelineFold, OutputIsBlockSizeInvariant) {
  Rng rng(79);
  CVec x(3001);
  for (Complex& v : x) v = rng.cgaussian();
  for (const Precision precision : {Precision::kF64, Precision::kF32})
    for (const bool restore : {true, false}) {
      const relay::PipelineConfig cfg = fold_test_config(-45e3, restore, true, 7, precision);
      std::vector<CVec> outs;
      for (const std::size_t block : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
        relay::ForwardPipeline pipe(cfg);
        CVec y = x;
        for (std::size_t i = 0; i < y.size(); i += block) {
          const CMutSpan span{y.data() + i, std::min(block, y.size() - i)};
          pipe.process_into(span, span);
        }
        outs.push_back(std::move(y));
      }
      for (std::size_t b = 1; b < outs.size(); ++b)
        EXPECT_EQ(0, std::memcmp(outs[0].data(), outs[b].data(), x.size() * sizeof(Complex)))
            << to_string(precision) << " restore=" << restore << " blocking #" << b;
    }
}

}  // namespace
}  // namespace ff
