#include "phy/ofdm.hpp"

#include <cmath>

#include "common/check.hpp"

namespace ff::phy {

OfdmModem::OfdmModem(OfdmParams params)
    : params_(params), plan_(params.fft_size), used_(params.used_subcarriers()) {}

CVec OfdmModem::modulate_symbol(CSpan used_values) const {
  FF_CHECK_MSG(used_values.size() == used_.size(),
               "expected " << used_.size() << " subcarrier values, got " << used_values.size());
  CVec freq(params_.fft_size, Complex{});
  for (std::size_t i = 0; i < used_.size(); ++i)
    freq[params_.fft_bin(used_[i])] = used_values[i];
  plan_.inverse(freq);
  // Normalize so symbol power equals mean subcarrier power: the IFFT's 1/N
  // spreads power across N bins but only |used| carry signal.
  const double norm = std::sqrt(static_cast<double>(params_.fft_size) *
                                static_cast<double>(params_.fft_size) /
                                static_cast<double>(used_.size()));
  CVec symbol(params_.symbol_len());
  for (std::size_t i = 0; i < params_.fft_size; ++i) freq[i] *= norm;
  // Cyclic prefix = tail of the IFFT output.
  for (std::size_t i = 0; i < params_.cp_len; ++i)
    symbol[i] = freq[params_.fft_size - params_.cp_len + i];
  for (std::size_t i = 0; i < params_.fft_size; ++i) symbol[params_.cp_len + i] = freq[i];
  return symbol;
}

CVec OfdmModem::demodulate_symbol(CSpan symbol) const { return demodulate_symbol(symbol, 0); }

CVec OfdmModem::demodulate_symbol(CSpan symbol, std::size_t cp_advance) const {
  FF_CHECK(symbol.size() == params_.symbol_len());
  FF_CHECK(cp_advance < params_.cp_len);
  CVec freq(params_.fft_size);
  const std::size_t start = params_.cp_len - cp_advance;
  for (std::size_t i = 0; i < params_.fft_size; ++i) freq[i] = symbol[start + i];
  plan_.forward(freq);
  const double norm = 1.0 / std::sqrt(static_cast<double>(params_.fft_size) *
                                      static_cast<double>(params_.fft_size) /
                                      static_cast<double>(used_.size()));
  CVec out(used_.size());
  for (std::size_t i = 0; i < used_.size(); ++i) {
    Complex v = freq[params_.fft_bin(used_[i])] * norm;
    if (cp_advance != 0) {
      // Undo the phase ramp introduced by the early FFT window: starting the
      // window d samples early delays the content, multiplying bin k by
      // e^{-j 2 pi k d / N}; compensate with the conjugate ramp.
      const double ang = 2.0 * 3.14159265358979323846 * static_cast<double>(used_[i]) *
                         static_cast<double>(cp_advance) / static_cast<double>(params_.fft_size);
      v *= Complex{std::cos(ang), std::sin(ang)};
    }
    out[i] = v;
  }
  return out;
}

}  // namespace ff::phy
