#include "fullduplex/digital_canceller.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/telemetry.hpp"
#include "dsp/correlation.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "linalg/matrix.hpp"

namespace ff::fd {

CVec estimate_fir_ls(CSpan x, CSpan y, std::size_t taps, std::size_t lookahead,
                     double ridge) {
  FF_CHECK(x.size() == y.size());
  FF_CHECK(taps > 0);
  FF_CHECK(lookahead < taps);
  FF_CHECK_MSG(x.size() > 2 * taps, "not enough samples to fit " << taps << " taps");

  // Row n uses x[n + lookahead - k] for k in [0, taps).
  const std::size_t first = taps;  // ensure full history
  const std::size_t last = x.size() - lookahead;
  const std::size_t rows = last - first;
  linalg::Matrix a(rows, taps), b(rows, 1);
  for (std::size_t r = 0; r < rows; ++r) {
    const std::size_t n = first + r;
    for (std::size_t k = 0; k < taps; ++k) a(r, k) = x[n + lookahead - k];
    b(r, 0) = y[n];
  }
  const linalg::Matrix h = linalg::least_squares(a, b, ridge);
  CVec out(taps);
  for (std::size_t k = 0; k < taps; ++k) out[k] = h(k, 0);
  return out;
}

CVec estimate_fir_ls_fast(CSpan x, CSpan y, std::size_t taps, std::size_t lookahead,
                          double ridge) {
  FF_CHECK(x.size() == y.size());
  FF_CHECK(taps > 0 && lookahead < taps);
  FF_CHECK_MSG(x.size() > 2 * taps, "not enough samples to fit " << taps << " taps");

  const std::size_t first = taps;
  const std::size_t last = x.size() - lookahead;

  // Exact covariance-method Gram matrix in O(N*taps + taps^2): compute the
  // first row exactly, then use the shift recurrence
  //   G[i+1][j+1] = G[i][j] + boundary corrections.
  const std::size_t rows = last - first;
  linalg::Matrix g(taps, taps), b(taps, 1);
  for (std::size_t j = 0; j < taps; ++j)
    g(0, j) = dsp::kernels::cdot_conj(CSpan{x.data() + first + lookahead, rows},
                                      CSpan{x.data() + first + lookahead - j, rows});
  for (std::size_t i = 0; i + 1 < taps; ++i) {
    // First entry of the next row comes from Hermitian symmetry with row 0
    // (needed by the recurrence below when it reads g(i, 0)).
    g(i + 1, 0) = std::conj(g(0, i + 1));
    for (std::size_t j = 0; j + 1 < taps; ++j) {
      // Shifting both filters back one sample swaps in the sample before the
      // window and drops the last one.
      const Complex add = std::conj(x[first - 1 + lookahead - i]) * x[first - 1 + lookahead - j];
      const Complex sub = std::conj(x[last - 1 + lookahead - i]) * x[last - 1 + lookahead - j];
      g(i + 1, j + 1) = g(i, j) + add - sub;
    }
  }

  CVec cross(taps, Complex{});
  for (std::size_t k = 0; k < taps; ++k)
    cross[k] = dsp::kernels::cdot_conj(CSpan{x.data() + first + lookahead - k, rows},
                                       CSpan{y.data() + first, rows});
  const double scale = std::max(std::abs(g(0, 0)), 1.0);
  for (std::size_t i = 0; i < taps; ++i) {
    g(i, i) += ridge * scale;
    b(i, 0) = cross[i];
  }
  const linalg::Matrix h = linalg::solve(g, b);
  CVec out(taps);
  for (std::size_t k = 0; k < taps; ++k) out[k] = h(k, 0);
  return out;
}

DigitalCanceller::DigitalCanceller(DigitalCancellerConfig cfg) : cfg_(cfg) {}

void DigitalCanceller::train(CSpan tx, CSpan residual) {
  taps_ = estimate_fir_ls_fast(tx, residual, cfg_.taps, cfg_.lookahead, cfg_.ridge);
  metrics::add(cfg_.metrics, "fd.digital.trainings");
  metrics::set(cfg_.metrics, "fd.digital.taps", static_cast<double>(cfg_.taps));
}

CVec DigitalCanceller::cancel(CSpan tx, CSpan rx) const {
  CVec out(rx.size());
  thread_local dsp::kernels::Workspace ws;
  cancel_into(tx, rx, out, ws);
  return out;
}

void DigitalCanceller::cancel_into(CSpan tx, CSpan rx, CMutSpan out,
                                   dsp::kernels::Workspace& ws) const {
  FF_CHECK(trained());
  FF_CHECK(tx.size() == rx.size());
  FF_CHECK_MSG(out.size() == rx.size(),
               "DigitalCanceller::cancel_into needs out.size() == rx.size(), got "
                   << out.size() << " vs " << rx.size());
  const std::size_t n = rx.size();
  if (n == 0) return;
  // est[i] = sum_k h[k] tx_pad[i + lookahead - k] with tx zero-padded on both
  // sides: leading zeros are the pre-stream history, trailing zeros the
  // lookahead buffer flush. Laid out as the fir_core extended buffer
  // ext[j] = tx_pad[j - (taps-1) + lookahead].
  const std::size_t hist = taps_.size() - 1;
  const std::size_t lead = hist - cfg_.lookahead;
  CMutSpan ext = ws.get(0, hist + n);
  std::fill(ext.begin(), ext.begin() + static_cast<std::ptrdiff_t>(lead), Complex{});
  std::copy(tx.begin(), tx.end(), ext.begin() + static_cast<std::ptrdiff_t>(lead));
  std::fill(ext.begin() + static_cast<std::ptrdiff_t>(lead + n), ext.end(), Complex{});
  CMutSpan est = ws.get(1, n);
  dsp::fir_core(taps_, ext.data(), est);
  for (std::size_t i = 0; i < n; ++i) out[i] = rx[i] - est[i];
}

}  // namespace ff::fd
