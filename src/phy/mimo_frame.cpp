#include "phy/mimo_frame.hpp"

#include <algorithm>
#include <cmath>

#include "channel/cfo.hpp"
#include "common/check.hpp"
#include "common/units.hpp"
#include "dsp/correlation.hpp"
#include "dsp/sequence.hpp"
#include "dsp/fft.hpp"
#include "phy/crc.hpp"
#include "phy/interleaver.hpp"
#include "phy/preamble.hpp"
#include "phy/scrambler.hpp"

namespace ff::phy {

namespace {

/// Pilot polarity shared with the SISO frame (same LFSR construction).
double pilot_polarity(std::size_t symbol_index) {
  static const std::vector<std::uint8_t> seq = [] {
    auto lfsr = dsp::Lfsr::scrambler(0x7F);
    return lfsr.bits(127);
  }();
  return seq[symbol_index % seq.size()] ? -1.0 : 1.0;
}

struct SubcarrierLayout {
  std::vector<std::size_t> pilot_pos;
  std::vector<std::size_t> data_pos;
};

SubcarrierLayout layout(const OfdmParams& params) {
  SubcarrierLayout out;
  const auto used = params.used_subcarriers();
  const auto pilots = params.pilot_subcarriers();
  for (std::size_t i = 0; i < used.size(); ++i) {
    if (std::find(pilots.begin(), pilots.end(), used[i]) != pilots.end())
      out.pilot_pos.push_back(i);
    else
      out.data_pos.push_back(i);
  }
  return out;
}

}  // namespace

linalg::Matrix htltf_mapping(std::size_t k) {
  FF_CHECK_MSG(k == 1 || k == 2 || k == 4, "P-matrix defined for K in {1,2,4}");
  if (k == 1) return linalg::Matrix{{Complex{1.0, 0.0}}};
  if (k == 2)
    return linalg::Matrix{{Complex{1, 0}, Complex{1, 0}},
                          {Complex{1, 0}, Complex{-1, 0}}};
  // Hadamard 4.
  linalg::Matrix p(4, 4);
  const int h2[2][2] = {{1, 1}, {1, -1}};
  for (std::size_t a = 0; a < 4; ++a)
    for (std::size_t b = 0; b < 4; ++b)
      p(a, b) = Complex{static_cast<double>(h2[a / 2][b / 2] * h2[a % 2][b % 2]), 0.0};
  return p;
}

MimoTransmitter::MimoTransmitter(OfdmParams params) : params_(params), modem_(params) {}

std::vector<CVec> MimoTransmitter::modulate(std::span<const std::uint8_t> payload,
                                            const MimoTxOptions& opts) const {
  const std::size_t k = opts.streams;
  FF_CHECK(k >= 1);
  FF_CHECK_MSG(payload.size() % k == 0, "payload must split evenly across streams");
  const Mcs& mcs = mcs_table().at(static_cast<std::size_t>(opts.mcs_index));
  const auto lay = layout(params_);
  const std::size_t n_data_sc = lay.data_pos.size();
  const std::size_t n_used = params_.used_subcarriers().size();
  const double power_scale = 1.0 / std::sqrt(static_cast<double>(k));

  std::vector<CVec> out(k);

  // ---- legacy preamble from antenna 0 only ----
  const CVec pre = preamble_time(params_);
  out[0].insert(out[0].end(), pre.begin(), pre.end());
  for (std::size_t a = 1; a < k; ++a) out[a].assign(pre.size(), Complex{});

  // ---- HT-LTFs: K training symbols mapped across antennas by P ----
  const linalg::Matrix p = htltf_mapping(k);
  const CVec ltf_vals = ltf_used_values(params_);
  for (std::size_t l = 0; l < k; ++l) {
    for (std::size_t a = 0; a < k; ++a) {
      CVec vals(n_used);
      for (std::size_t i = 0; i < n_used; ++i)
        vals[i] = p(a, l) * ltf_vals[i] * power_scale;
      const CVec sym = modem_.modulate_symbol(vals);
      out[a].insert(out[a].end(), sym.begin(), sym.end());
    }
  }

  // ---- SIG symbol (antenna 0 only): per-stream payload length ----
  {
    const auto msg = detail::encode_signal_field(opts.mcs_index, payload.size() / k);
    auto coded = convolutional_encode(msg, CodeRate::R1_2);
    FF_CHECK(coded.size() <= n_data_sc);
    coded.resize(n_data_sc, 0);
    coded = interleave(coded, Modulation::BPSK, n_data_sc);
    const CVec syms = phy::modulate(coded, Modulation::BPSK);
    CVec used(n_used, Complex{});
    for (std::size_t i = 0; i < n_data_sc; ++i)
      used[lay.data_pos[i]] = syms[i] * power_scale;
    for (const std::size_t pp : lay.pilot_pos)
      used[pp] = Complex{pilot_polarity(0) * power_scale, 0.0};
    const CVec sym = modem_.modulate_symbol(used);
    out[0].insert(out[0].end(), sym.begin(), sym.end());
    for (std::size_t a = 1; a < k; ++a)
      out[a].insert(out[a].end(), sym.size(), Complex{});
  }

  // ---- DATA: one stream per antenna ----
  const std::size_t chunk = payload.size() / k;
  const std::size_t n_cbps = n_data_sc * bits_per_symbol(mcs.modulation);
  const std::size_t coded_len = coded_length(chunk + 32, mcs.rate);
  const std::size_t n_sym = (coded_len + n_cbps - 1) / n_cbps;
  for (std::size_t a = 0; a < k; ++a) {
    std::vector<std::uint8_t> msg(payload.begin() + static_cast<long>(a * chunk),
                                  payload.begin() + static_cast<long>((a + 1) * chunk));
    msg = append_crc(msg);
    // Per-stream scrambler seed: if a confused detector hands one stream's
    // symbols to another stream's decoder, the descramble mismatch breaks
    // the CRC instead of silently duplicating data.
    msg = scramble(msg, static_cast<std::uint8_t>(0x5D ^ (a * 0x21)));
    auto coded = convolutional_encode(msg, mcs.rate);
    coded.resize(n_sym * n_cbps, 0);
    coded = interleave(coded, mcs.modulation, n_data_sc);
    const CVec syms = phy::modulate(coded, mcs.modulation);
    for (std::size_t s = 0; s < n_sym; ++s) {
      CVec used(n_used, Complex{});
      for (std::size_t i = 0; i < n_data_sc; ++i)
        used[lay.data_pos[i]] = syms[s * n_data_sc + i] * power_scale;
      if (a == 0) {
        const double pol = pilot_polarity(s + 1);
        for (const std::size_t pp : lay.pilot_pos)
          used[pp] = Complex{pol * power_scale, 0.0};
      }
      const CVec sym = modem_.modulate_symbol(used);
      out[a].insert(out[a].end(), sym.begin(), sym.end());
    }
  }
  return out;
}

MimoReceiver::MimoReceiver(OfdmParams params) : params_(params), modem_(params) {}

std::optional<MimoRxResult> MimoReceiver::receive(const std::vector<CVec>& rx) const {
  const std::size_t k = rx.size();
  FF_CHECK(k >= 1);
  for (const auto& r : rx) FF_CHECK(r.size() == rx[0].size());

  // ---- detection on the strongest antenna ----
  const Receiver siso(params_);
  std::optional<std::size_t> start;
  std::size_t detect_antenna = 0;
  const auto stf_power = [&](std::size_t a, std::size_t at) {
    const std::size_t len = std::min<std::size_t>(rx[a].size() - at, 160);
    return dsp::mean_power(CSpan(rx[a]).subspan(at, len));
  };
  for (std::size_t a = 0; a < k; ++a) {
    const auto s = siso.detect_preamble(rx[a]);
    if (s && (!start || stf_power(a, *s) > stf_power(detect_antenna, *start))) {
      start = s;
      detect_antenna = a;
    }
  }
  if (!start) return std::nullopt;

  const std::size_t stf_len = 10 * (params_.fft_size / 4);
  const std::size_t ltf_guard = 2 * params_.cp_len;
  const std::size_t ltf_len = ltf_guard + 2 * params_.fft_size;
  const std::size_t sym_len = params_.symbol_len();
  const std::size_t htltf_off = stf_len + ltf_len;
  const std::size_t sig_off = htltf_off + k * sym_len;
  if (*start + sig_off + sym_len > rx[0].size()) return std::nullopt;

  // ---- CFO (common oscillator): estimate on the detection antenna ----
  const double coarse =
      estimate_cfo_stf(CSpan(rx[detect_antenna]).subspan(*start, stf_len), params_);
  std::vector<CVec> corr(k);
  for (std::size_t a = 0; a < k; ++a) {
    CVec tail(rx[a].begin() + static_cast<long>(*start), rx[a].end());
    corr[a] = channel::apply_cfo(tail, -coarse, params_.sample_rate_hz);
  }
  const double fine = estimate_cfo_ltf(
      CSpan(corr[detect_antenna]).subspan(stf_len + ltf_guard, 2 * params_.fft_size), params_);
  for (std::size_t a = 0; a < k; ++a) {
    channel::CfoRotator rot(-fine, params_.sample_rate_hz);
    corr[a] = rot.process(corr[a]);
  }

  // ---- noise estimate from legacy LTF word difference, per antenna ----
  const auto used = params_.used_subcarriers();
  double noise_var = 0.0;
  {
    const dsp::FftPlan<>& plan = dsp::FftPlan<>::cached(params_.fft_size);
    const double norm = 1.0 / std::sqrt(static_cast<double>(params_.fft_size) *
                                        static_cast<double>(params_.fft_size) /
                                        static_cast<double>(used.size()));
    double acc = 0.0;
    for (std::size_t a = 0; a < k; ++a) {
      CVec w1(corr[a].begin() + static_cast<long>(stf_len + ltf_guard),
              corr[a].begin() + static_cast<long>(stf_len + ltf_guard + params_.fft_size));
      CVec w2(corr[a].begin() + static_cast<long>(stf_len + ltf_guard + params_.fft_size),
              corr[a].begin() + static_cast<long>(stf_len + ltf_guard + 2 * params_.fft_size));
      plan.forward(w1);
      plan.forward(w2);
      for (const int kk : used) {
        const std::size_t b = params_.fft_bin(kk);
        acc += std::norm((w1[b] - w2[b]) * norm);
      }
    }
    noise_var = std::max(acc / (2.0 * static_cast<double>(used.size() * k)), 1e-30);
  }

  // ---- HT-LTF channel estimation: per-subcarrier K x K ----
  const CVec ltf_vals = ltf_used_values(params_);
  const linalg::Matrix p = htltf_mapping(k);
  const linalg::Matrix p_inv = linalg::inverse(p);
  std::vector<linalg::Matrix> h(used.size(), linalg::Matrix(k, k));
  {
    // y_matrix[i]: rows = rx antennas, cols = HT-LTF symbol index.
    for (std::size_t l = 0; l < k; ++l) {
      for (std::size_t a = 0; a < k; ++a) {
        const CVec sym = modem_.demodulate_symbol(
            CSpan(corr[a]).subspan(htltf_off + l * sym_len, sym_len));
        for (std::size_t i = 0; i < used.size(); ++i) {
          // Y(a, l) accumulated into H after the P^-1: do it in two passes.
          h[i](a, l) = sym[i] / ltf_vals[i];
        }
      }
    }
    for (auto& hi : h) hi = hi * p_inv;
  }

  const auto lay = layout(params_);
  const std::size_t n_data_sc = lay.data_pos.size();

  MimoRxResult result;
  result.streams = k;
  result.cfo_hz = coarse + fine;
  result.sync_index = *start;

  // ---- SIG (antenna-0 column, maximum-ratio combined) ----
  detail::SignalField sig;
  {
    CVec eq(n_data_sc);
    std::vector<CVec> y(k);
    for (std::size_t a = 0; a < k; ++a)
      y[a] = modem_.demodulate_symbol(CSpan(corr[a]).subspan(sig_off, sym_len));
    // Common phase from pilots on the h(:,0) column.
    Complex cpe{0.0, 0.0};
    for (const std::size_t pp : lay.pilot_pos)
      for (std::size_t a = 0; a < k; ++a)
        cpe += y[a][pp] * std::conj(h[pp](a, 0) * pilot_polarity(0));
    const Complex rot = std::abs(cpe) > 1e-30 ? cpe / std::abs(cpe) : Complex{1.0, 0.0};
    double nv_acc = 0.0;
    for (std::size_t i = 0; i < n_data_sc; ++i) {
      const std::size_t pos = lay.data_pos[i];
      Complex num{0.0, 0.0};
      double den = 0.0;
      for (std::size_t a = 0; a < k; ++a) {
        num += std::conj(h[pos](a, 0)) * y[a][pos];
        den += std::norm(h[pos](a, 0));
      }
      eq[i] = num * std::conj(rot) / std::max(den, 1e-30);
      nv_acc += noise_var / std::max(den, 1e-30);
    }
    auto llrs = demodulate_soft(eq, Modulation::BPSK, nv_acc / n_data_sc);
    auto deint = deinterleave(llrs, Modulation::BPSK, n_data_sc);
    deint.resize(coded_length(detail::signal_field_bits(), CodeRate::R1_2));
    const auto msg = viterbi_decode(deint, CodeRate::R1_2, detail::signal_field_bits());
    const auto decoded = detail::decode_signal_field(msg);
    if (!decoded) return std::nullopt;
    sig = *decoded;
    result.mcs_index = sig.mcs_index;
  }

  const Mcs& mcs = mcs_table().at(static_cast<std::size_t>(sig.mcs_index));
  const std::size_t n_cbps = n_data_sc * bits_per_symbol(mcs.modulation);
  const std::size_t coded_len = coded_length(sig.payload_bits + 32, mcs.rate);
  const std::size_t n_sym = (coded_len + n_cbps - 1) / n_cbps;
  const std::size_t data_off = sig_off + sym_len;
  if (*start + data_off + n_sym * sym_len > rx[0].size()) return std::nullopt;

  // ---- MMSE detection per subcarrier, per symbol ----
  std::vector<std::vector<double>> llr_streams(k);
  std::vector<double> evm_acc(k, 0.0);
  std::size_t evm_count = 0;
  for (std::size_t s = 0; s < n_sym; ++s) {
    std::vector<CVec> y(k);
    for (std::size_t a = 0; a < k; ++a)
      y[a] = modem_.demodulate_symbol(CSpan(corr[a]).subspan(data_off + s * sym_len, sym_len));

    // Common phase error from pilots (antenna-0 column carries them).
    Complex cpe{0.0, 0.0};
    const double pol = pilot_polarity(s + 1);
    for (const std::size_t pp : lay.pilot_pos)
      for (std::size_t a = 0; a < k; ++a)
        cpe += y[a][pp] * std::conj(h[pp](a, 0) * pol);
    const Complex rot = std::abs(cpe) > 1e-30 ? cpe / std::abs(cpe) : Complex{1.0, 0.0};

    std::vector<CVec> eq(k, CVec(n_data_sc));
    std::vector<double> nv(k, 0.0);
    for (std::size_t i = 0; i < n_data_sc; ++i) {
      const std::size_t pos = lay.data_pos[i];
      const linalg::Matrix& hi = h[pos];
      // MMSE: W = (H^H H + sigma^2 I)^-1 H^H.
      linalg::Matrix gram = hi.adjoint() * hi;
      for (std::size_t d = 0; d < k; ++d) gram(d, d) += noise_var;
      const linalg::Matrix w = linalg::solve(gram, hi.adjoint());
      linalg::Matrix yv(k, 1);
      for (std::size_t a = 0; a < k; ++a) yv(a, 0) = y[a][pos] * std::conj(rot);
      const linalg::Matrix xhat = w * yv;
      for (std::size_t st = 0; st < k; ++st) {
        eq[st][i] = xhat(st, 0);
        double wrow = 0.0;
        for (std::size_t a = 0; a < k; ++a) wrow += std::norm(w(st, a));
        nv[st] += noise_var * wrow;
      }
    }
    for (std::size_t st = 0; st < k; ++st) {
      auto sym_llrs = demodulate_soft(eq[st], mcs.modulation, nv[st] / n_data_sc);
      const auto deint = deinterleave(sym_llrs, mcs.modulation, n_data_sc);
      llr_streams[st].insert(llr_streams[st].end(), deint.begin(), deint.end());
      const auto hard = demodulate_hard(eq[st], mcs.modulation);
      const CVec ideal = phy::modulate(hard, mcs.modulation);
      for (std::size_t i = 0; i < eq[st].size(); ++i)
        evm_acc[st] += std::norm(eq[st][i] - ideal[i]);
    }
    evm_count += n_data_sc;
  }

  // ---- per-stream decode and payload reassembly ----
  result.stream_crc_ok.assign(k, false);
  result.stream_snr_db.assign(k, 0.0);
  result.crc_ok = true;
  for (std::size_t st = 0; st < k; ++st) {
    llr_streams[st].resize(coded_len);
    auto decoded = viterbi_decode(llr_streams[st], mcs.rate, sig.payload_bits + 32);
    decoded = scramble(decoded, static_cast<std::uint8_t>(0x5D ^ (st * 0x21)));
    result.stream_crc_ok[st] = check_crc(decoded);
    result.crc_ok = result.crc_ok && result.stream_crc_ok[st];
    decoded.resize(sig.payload_bits);
    result.payload.insert(result.payload.end(), decoded.begin(), decoded.end());
    const double evm = evm_acc[st] / std::max<double>(static_cast<double>(evm_count), 1.0);
    result.stream_snr_db[st] = evm > 0.0 ? -db_from_power(evm) : 100.0;
  }
  return result;
}

}  // namespace ff::phy
