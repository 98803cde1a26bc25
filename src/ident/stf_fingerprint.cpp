#include "ident/stf_fingerprint.hpp"

#include <cmath>

#include "common/check.hpp"
#include "dsp/fft.hpp"
#include "phy/preamble.hpp"

namespace ff::ident {

CVec stf_channel_imprint(CSpan stf_rx, const phy::OfdmParams& params) {
  const std::size_t n = params.fft_size;
  FF_CHECK_MSG(stf_rx.size() >= 2 * n, "need at least two 64-sample STF blocks");

  // Average two 64-sample blocks (8 STF words) and read the occupied bins.
  const dsp::FftPlan<>& plan = dsp::FftPlan<>::cached(n);
  const CVec ref = phy::stf_used_values(params);
  const auto used = params.used_subcarriers();

  CVec acc(n, Complex{});
  for (int block = 0; block < 2; ++block) {
    CVec f(stf_rx.begin() + block * static_cast<long>(n),
           stf_rx.begin() + (block + 1) * static_cast<long>(n));
    plan.forward(f);
    for (std::size_t i = 0; i < n; ++i) acc[i] += f[i];
  }

  CVec imprint;
  imprint.reserve(16);
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (std::abs(ref[i]) < 1e-12) continue;  // STF occupies every 4th tone
    imprint.push_back(acc[params.fft_bin(used[i])] / ref[i]);
  }
  return imprint;
}

// Threshold scale: with an indoor channel dominated by one path plus
// -15..-20 dB multipath, the 14-tone imprints of two clients differ mainly
// through their bulk-delay difference (a Dirichlet kernel across the tones),
// putting typical cross-client distances at 0.02-0.15 while same-channel
// re-measurements sit below ~0.005 at usable SNR. The aggressive setting
// therefore accepts only very tight matches AND demands a clear margin over
// the runner-up; the passive one accepts almost anything close.
FingerprintConfig aggressive_config() { return {0.005, 0.0015}; }
FingerprintConfig passive_config() { return {0.05, 0.0}; }

StfFingerprinter::StfFingerprinter(phy::OfdmParams params, FingerprintConfig cfg)
    : params_(params), cfg_(cfg) {}

void StfFingerprinter::enroll(std::uint32_t client, CVec imprint) {
  FF_CHECK(!imprint.empty());
  database_[client] = std::move(imprint);
}

void StfFingerprinter::enroll_from_stf(std::uint32_t client, CSpan stf_rx) {
  enroll(client, stf_channel_imprint(stf_rx, params_));
}

double StfFingerprinter::distance(CSpan a, CSpan b) {
  FF_CHECK(a.size() == b.size() && !a.empty());
  Complex inner{0.0, 0.0};
  double pa = 0.0, pb = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    inner += std::conj(a[i]) * b[i];
    pa += std::norm(a[i]);
    pb += std::norm(b[i]);
  }
  if (pa <= 0.0 || pb <= 0.0) return 1.0;
  // Phase compensation = take |inner|; distance = 1 - normalized match.
  return 1.0 - std::abs(inner) / std::sqrt(pa * pb);
}

std::optional<FingerprintMatch> StfFingerprinter::identify(CSpan stf_rx) const {
  if (database_.empty()) return std::nullopt;
  const CVec imprint = stf_channel_imprint(stf_rx, params_);

  double best = 2.0, second = 2.0;
  std::uint32_t best_client = 0;
  for (const auto& [client, db] : database_) {
    if (db.size() != imprint.size()) continue;
    const double d = distance(imprint, db);
    if (d < best) {
      second = best;
      best = d;
      best_client = client;
    } else if (d < second) {
      second = d;
    }
  }
  if (best > cfg_.max_distance) return std::nullopt;
  const double margin = second - best;
  if (database_.size() > 1 && margin < cfg_.min_margin) return std::nullopt;
  return FingerprintMatch{best_client, best, margin};
}

}  // namespace ff::ident
