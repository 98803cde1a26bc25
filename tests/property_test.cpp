// Randomized property sweeps across module boundaries: invariants that must
// hold for every channel realization, not just the scripted cases.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "eval/experiment.hpp"
#include "eval/schemes.hpp"
#include "eval/testbed.hpp"
#include "phy/mcs.hpp"
#include "relay/cnf_design.hpp"
#include "relay/design.hpp"
#include "relay/digital_prefilter.hpp"

namespace ff {
namespace {

// ------------------------------------------------- CNF properties

class CnfSeeds : public ::testing::TestWithParam<int> {};

TEST_P(CnfSeeds, ConstructiveNeverWorseThanUnfiltered) {
  // Property: on EVERY subcarrier, |h_sd + h_rd F A h_sr| with the ideal
  // filter >= the same with F = 1, and >= |h_sd| alone.
  Rng rng(static_cast<unsigned>(GetParam()));
  const std::size_t n = 56;
  CVec h_sd(n), h_sr(n), h_rd(n);
  for (std::size_t i = 0; i < n; ++i) {
    h_sd[i] = rng.cgaussian();
    h_sr[i] = rng.cgaussian();
    h_rd[i] = rng.cgaussian();
  }
  const double a = rng.uniform(0.1, 5.0);
  const CVec f = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const CVec filt = relay::combined_channel_siso(h_sd, h_sr, h_rd, f, a);
  const CVec unfiltered =
      relay::combined_channel_siso(h_sd, h_sr, h_rd, CVec(n, Complex{1.0, 0.0}), a);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(std::abs(filt[i]) + 1e-12, std::abs(unfiltered[i])) << i;
    EXPECT_GE(std::abs(filt[i]) + 1e-12, std::abs(h_sd[i])) << i;
  }
}

TEST_P(CnfSeeds, MimoObjectiveAtLeastBaseline) {
  Rng rng(static_cast<unsigned>(GetParam() + 1000));
  linalg::Matrix h_sd(2, 2), h_sr(2, 2), h_rd(2, 2);
  for (std::size_t i = 0; i < 2; ++i)
    for (std::size_t j = 0; j < 2; ++j) {
      h_sd(i, j) = rng.cgaussian();
      h_sr(i, j) = rng.cgaussian();
      h_rd(i, j) = rng.cgaussian();
    }
  const double a = rng.uniform(0.2, 2.0);
  const auto r = relay::cnf_mimo_design(h_sd, h_sr, h_rd, a);
  EXPECT_GE(r.objective, r.baseline - 1e-9);
  // The filter stays unitary.
  const auto gram = r.filter.adjoint() * r.filter;
  EXPECT_NEAR((gram - linalg::Matrix::identity(2)).frobenius(), 0.0, 1e-8);
}

TEST_P(CnfSeeds, SplitRealizationKeepsMostOfTheGain) {
  // Property: the realized (4-tap + analog) filter keeps the combined
  // channel power within a few dB of the ideal rotation's, for random
  // smooth channels with the nominal 50 ns chain ramp.
  Rng rng(static_cast<unsigned>(GetParam() + 2000));
  const phy::OfdmParams params;
  const auto freqs = params.used_subcarrier_freqs();
  const std::size_t n = freqs.size();
  // Smooth channels: a few taps each.
  const auto smooth = [&](double bulk_ns) {
    CVec h(n);
    const Complex a0 = rng.cgaussian(), a1 = rng.cgaussian(0.2);
    const double d0 = bulk_ns * 1e-9, d1 = d0 + rng.uniform(20e-9, 120e-9);
    for (std::size_t i = 0; i < n; ++i) {
      h[i] = a0 * std::exp(Complex(0.0, -kTwoPi * freqs[i] * d0)) +
             a1 * std::exp(Complex(0.0, -kTwoPi * freqs[i] * d1));
    }
    return h;
  };
  const CVec h_sd = smooth(20.0), h_sr = smooth(10.0);
  CVec h_rd = smooth(15.0);
  for (std::size_t i = 0; i < n; ++i)
    h_rd[i] *= std::exp(Complex(0.0, -kTwoPi * freqs[i] * 50e-9));  // chain

  const CVec ideal = relay::cnf_siso_ideal(h_sd, h_sr, h_rd);
  const auto split = relay::design_cnf_split(ideal, freqs);

  double ideal_power = 0.0, real_power = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    ideal_power +=
        std::norm(h_sd[i] + h_rd[i] * ideal[i] * h_sr[i]);
    real_power += std::norm(h_sd[i] + h_rd[i] * (split.realized[i] /
                                                 split.insertion_gain()) *
                                          h_sr[i]);
  }
  EXPECT_GT(10.0 * std::log10(real_power / ideal_power), -3.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CnfSeeds, ::testing::Range(1, 13));

// ------------------------------------------------- scheme invariants

class SchemeSeeds : public ::testing::TestWithParam<int> {};

TEST_P(SchemeSeeds, DesignInvariantsHoldEverywhere) {
  eval::TestbedConfig tb;
  tb.antennas = 1;
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  Rng rng(static_cast<unsigned>(GetParam() * 77));
  const auto client = eval::random_client_location(plan, rng);
  const auto link = eval::build_link(placement, client, tb, rng);
  const auto opts = eval::default_design_options(tb);
  const auto d = relay::design_ff_relay(link, opts);

  // Gain within every ceiling.
  EXPECT_LE(d.amp.gain_db, d.amp.stability_limit_db + 1e-9);
  EXPECT_LE(d.amp.gain_db, d.amp.noise_limit_db + 1e-9);
  EXPECT_LE(d.amp.gain_db, d.amp.power_limit_db + 1e-9);
  EXPECT_GE(d.amp.gain_db, 0.0);
  // The noise rule is MEAN-based (the paper's "(a - 3) dB" uses the
  // channel's average attenuation): injected noise stays near/below the
  // floor on average, with bounded per-subcarrier excursions on fading
  // peaks of h_rd.
  if (d.amp.noise_limited) {
    double mean_nmw = 0.0;
    for (const double nmw : d.relay_noise_mw) {
      mean_nmw += nmw / static_cast<double>(d.relay_noise_mw.size());
      EXPECT_LT(nmw, 10.0 * power_from_db(link.dest_noise_dbm));
    }
    EXPECT_LT(mean_nmw, 2.5 * power_from_db(link.dest_noise_dbm));
  }
  // Effective channel is never the zero channel when the direct was alive.
  double sd_p = 0.0, eff_p = 0.0;
  for (std::size_t i = 0; i < link.subcarriers(); ++i) {
    sd_p += std::norm(link.h_sd[i](0, 0));
    eff_p += std::norm(d.h_eff[i](0, 0));
  }
  EXPECT_GE(eff_p, 0.2 * sd_p);
}

TEST_P(SchemeSeeds, RateMonotoneInNoiseFloor) {
  eval::TestbedConfig quiet, loud;
  quiet.antennas = loud.antennas = 1;
  loud.noise_floor_dbm = -80.0;  // 10 dB worse
  const auto plan = channel::FloorPlan::paper_home();
  const auto placement = eval::make_placement(plan);
  Rng rng_pos(static_cast<unsigned>(GetParam() * 131));
  const auto spot = eval::random_client_location(plan, rng_pos);
  Rng c1(static_cast<unsigned>(GetParam() * 7)), c2(static_cast<unsigned>(GetParam() * 7));
  const auto link_q = eval::build_link(placement, spot, quiet, c1);
  const auto link_l = eval::build_link(placement, spot, loud, c2);
  EXPECT_GE(eval::ap_only_rate(link_q).throughput_mbps,
            eval::ap_only_rate(link_l).throughput_mbps);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchemeSeeds, ::testing::Range(1, 9));

// ------------------------------------------------- MCS properties

TEST(McsProperty, RateMonotoneInSnr) {
  double prev = -1.0;
  for (double snr = -10.0; snr <= 40.0; snr += 0.25) {
    const double r = phy::rate_from_snr_db(snr);
    EXPECT_GE(r, prev);
    prev = r;
  }
}

TEST(McsProperty, EffectiveSnrBetweenMinAndMax) {
  Rng rng(3);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<double> snrs(56);
    double lo = 1e9, hi = -1e9;
    for (auto& s : snrs) {
      s = rng.uniform(-10.0, 35.0);
      lo = std::min(lo, s);
      hi = std::max(hi, s);
    }
    const double eff = phy::effective_snr_db(snrs);
    EXPECT_GE(eff, lo - 1e-9);
    EXPECT_LE(eff, hi + 1e-9);
  }
}

}  // namespace
}  // namespace ff
