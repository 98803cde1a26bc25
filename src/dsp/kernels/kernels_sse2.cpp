// SSE2 kernel path: one complex double per __m128d. SSE2 is part of the
// x86-64 baseline, so this TU needs no special -m flags; it exists as the
// guaranteed-available SIMD floor under AVX2. Compiled only when FF_SIMD=ON.
//
// Bitwise contract (kernels.hpp): every operation below is the exact
// per-element formula of the scalar reference — multiplies and adds in the
// same order, subtraction expressed as addition of a negation (IEEE-exact),
// +/-i rotations as component swaps with sign flips (exact). The TU is
// compiled -ffp-contract=off so no mul/add pair can fuse into an FMA.
#include "dsp/kernels/kernels_detail.hpp"

#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))

#include <emmintrin.h>

namespace ff::dsp::kernels::detail {
namespace {

inline __m128d loadc(const Complex* p) {
  return _mm_loadu_pd(reinterpret_cast<const double*>(p));
}

inline void storec(Complex* p, __m128d v) {
  _mm_storeu_pd(reinterpret_cast<double*>(p), v);
}

// [a0 - b0, a1 + b1] via a + (b ^ [-0, +0]); IEEE a + (-b) == a - b.
inline __m128d addsub(__m128d a, __m128d b) {
  const __m128d mask = _mm_set_pd(0.0, -0.0);
  return _mm_add_pd(a, _mm_xor_pd(b, mask));
}

// [a0 + b0, a1 - b1].
inline __m128d subadd(__m128d a, __m128d b) {
  const __m128d mask = _mm_set_pd(-0.0, 0.0);
  return _mm_add_pd(a, _mm_xor_pd(b, mask));
}

// a * b with b's parts already broadcast (br = [br, br], bi = [bi, bi]):
// re = ar*br - ai*bi, im = ai*br + ar*bi (same products as the scalar
// ar*bi + ai*br, addition commuted — bitwise equal).
inline __m128d cmul_parts(__m128d a, __m128d br, __m128d bi) {
  const __m128d asw = _mm_shuffle_pd(a, a, 1);
  return addsub(_mm_mul_pd(a, br), _mm_mul_pd(asw, bi));
}

// a * b.
inline __m128d cmul(__m128d a, __m128d b) {
  return cmul_parts(a, _mm_unpacklo_pd(b, b), _mm_unpackhi_pd(b, b));
}

// conj(a) * b: re = br*ar + bi*ai, im = bi*ar - br*ai.
inline __m128d cmul_conj(__m128d a, __m128d b) {
  const __m128d ar = _mm_unpacklo_pd(a, a);
  const __m128d ai = _mm_unpackhi_pd(a, a);
  const __m128d bsw = _mm_shuffle_pd(b, b, 1);
  return subadd(_mm_mul_pd(b, ar), _mm_mul_pd(bsw, ai));
}

void cmul_sse2(const Complex* a, const Complex* b, Complex* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) storec(out + i, cmul(loadc(a + i), loadc(b + i)));
}

void axpy_sse2(Complex alpha, const Complex* x, Complex* y, std::size_t n) {
  const __m128d av = loadc(&alpha);
  for (std::size_t i = 0; i < n; ++i) {
    const __m128d p = cmul(loadc(x + i), av);
    storec(y + i, _mm_add_pd(loadc(y + i), p));
  }
}

void scale_real_sse2(double alpha, const Complex* x, Complex* out, std::size_t n) {
  const __m128d av = _mm_set1_pd(alpha);
  for (std::size_t i = 0; i < n; ++i)
    storec(out + i, _mm_mul_pd(loadc(x + i), av));
}

// Four outputs per pass in four accumulators, each meeting the taps in
// order: the scalar core's sums (kernels.hpp, fir_block).
void fir_block_sse2(const Complex* taps, std::size_t ntaps, const Complex* ext, Complex* y,
                    std::size_t n, std::size_t stride) {
  const std::size_t h = ntaps - 1;
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const Complex* x = ext + i * stride + h;
    __m128d a0 = _mm_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
    for (std::size_t k = 0; k <= h; ++k) {
      const __m128d tr = _mm_set1_pd(taps[k].real());
      const __m128d ti = _mm_set1_pd(taps[k].imag());
      const Complex* p = x - k;
      a0 = _mm_add_pd(a0, cmul_parts(loadc(p), tr, ti));
      a1 = _mm_add_pd(a1, cmul_parts(loadc(p + stride), tr, ti));
      a2 = _mm_add_pd(a2, cmul_parts(loadc(p + 2 * stride), tr, ti));
      a3 = _mm_add_pd(a3, cmul_parts(loadc(p + 3 * stride), tr, ti));
    }
    storec(y + i, a0);
    storec(y + i + 1, a1);
    storec(y + i + 2, a2);
    storec(y + i + 3, a3);
  }
  fir_block_scalar(taps, ntaps, ext + i * stride, y + i, n - i, stride);
}

Complex cdot_conj_sse2(const Complex* a, const Complex* b, std::size_t n) {
  __m128d v0 = _mm_setzero_pd(), v1 = v0, v2 = v0, v3 = v0;
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4) {
    v0 = _mm_add_pd(v0, cmul_conj(loadc(a + k), loadc(b + k)));
    v1 = _mm_add_pd(v1, cmul_conj(loadc(a + k + 1), loadc(b + k + 1)));
    v2 = _mm_add_pd(v2, cmul_conj(loadc(a + k + 2), loadc(b + k + 2)));
    v3 = _mm_add_pd(v3, cmul_conj(loadc(a + k + 3), loadc(b + k + 3)));
  }
  Complex lanes[4];
  storec(&lanes[0], v0);
  storec(&lanes[1], v1);
  storec(&lanes[2], v2);
  storec(&lanes[3], v3);
  cdot_conj_tail(a, b, n4, n, lanes);
  const double re = (lanes[0].real() + lanes[1].real()) + (lanes[2].real() + lanes[3].real());
  const double im = (lanes[0].imag() + lanes[1].imag()) + (lanes[2].imag() + lanes[3].imag());
  return {re, im};
}

double magsq_accum_sse2(const Complex* x, std::size_t n) {
  double lanes[4] = {};
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4) {
    for (std::size_t j = 0; j < 4; ++j) {
      const __m128d v = loadc(x + k + j);
      const __m128d sq = _mm_mul_pd(v, v);
      // term = re^2 + im^2, summed in that order like the scalar core.
      lanes[j] += _mm_cvtsd_f64(_mm_add_pd(sq, _mm_unpackhi_pd(sq, sq)));
    }
  }
  magsq_accum_tail(x, n4, n, lanes);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

void radix2_stage_sse2(const Complex* src, Complex* dst, const Complex* tw,
                       std::size_t half, std::size_t m) {
  for (std::size_t j = 0; j < half; ++j) {
    const __m128d w = loadc(tw + j);
    const Complex* s0 = src + m * j;
    const Complex* s1 = src + m * (j + half);
    Complex* d0 = dst + m * (2 * j);
    Complex* d1 = d0 + m;
    for (std::size_t k = 0; k < m; ++k) {
      const __m128d c0 = loadc(s0 + k);
      const __m128d c1 = loadc(s1 + k);
      storec(d0 + k, _mm_add_pd(c0, c1));
      storec(d1 + k, cmul(w, _mm_sub_pd(c0, c1)));
    }
  }
}

void radix4_stage_sse2(const Complex* src, Complex* dst, const Complex* tw,
                       std::size_t quarter, std::size_t m, bool invert) {
  // +/-i rotation masks: forward e3 = [t.im, -t.re], inverse e3 = [-t.im, t.re].
  const __m128d fwd_mask = _mm_set_pd(-0.0, 0.0);
  const __m128d inv_mask = _mm_set_pd(0.0, -0.0);
  const __m128d rot = invert ? inv_mask : fwd_mask;
  for (std::size_t j = 0; j < quarter; ++j) {
    const __m128d w1 = loadc(tw + 3 * j);
    const __m128d w2 = loadc(tw + 3 * j + 1);
    const __m128d w3 = loadc(tw + 3 * j + 2);
    const Complex* s0 = src + m * j;
    const Complex* s1 = src + m * (j + quarter);
    const Complex* s2 = src + m * (j + 2 * quarter);
    const Complex* s3 = src + m * (j + 3 * quarter);
    Complex* d0 = dst + m * (4 * j);
    Complex* d1 = d0 + m;
    Complex* d2 = d1 + m;
    Complex* d3 = d2 + m;
    for (std::size_t k = 0; k < m; ++k) {
      const __m128d c0 = loadc(s0 + k), c1 = loadc(s1 + k);
      const __m128d c2 = loadc(s2 + k), c3 = loadc(s3 + k);
      const __m128d e0 = _mm_add_pd(c0, c2);
      const __m128d e1 = _mm_sub_pd(c0, c2);
      const __m128d e2 = _mm_add_pd(c1, c3);
      const __m128d t = _mm_sub_pd(c1, c3);
      const __m128d e3 = _mm_xor_pd(_mm_shuffle_pd(t, t, 1), rot);
      storec(d0 + k, _mm_add_pd(e0, e2));
      storec(d1 + k, cmul(w1, _mm_add_pd(e1, e3)));
      storec(d2 + k, cmul(w2, _mm_sub_pd(e0, e2)));
      storec(d3 + k, cmul(w3, _mm_sub_pd(e1, e3)));
    }
  }
}

// ------------------------------------------------------------ float32 path
// Two complex<float> per __m128. SSE2 lacks the SSE3 moveldup/movehdup and
// addsub instructions, so broadcasts are shuffles and add/sub pairs go
// through sign-mask XORs (IEEE a + (-b) == a - b, exact).

inline __m128 loadc2f(const Complex32* p) {
  return _mm_loadu_ps(reinterpret_cast<const float*>(p));
}

inline void storec2f(Complex32* p, __m128 v) {
  _mm_storeu_ps(reinterpret_cast<float*>(p), v);
}

// Duplicate one Complex32 into both register halves (pure data movement).
inline __m128 bcastc1f(Complex32 c) {
  const __m128 v = _mm_castpd_ps(_mm_load_sd(reinterpret_cast<const double*>(&c)));
  return _mm_shuffle_ps(v, v, _MM_SHUFFLE(1, 0, 1, 0));
}

// Real lanes subtract, imag lanes add: a + (b ^ [-0,+0,-0,+0]).
inline __m128 addsubf(__m128 a, __m128 b) {
  const __m128 mask = _mm_set_ps(0.0f, -0.0f, 0.0f, -0.0f);
  return _mm_add_ps(a, _mm_xor_ps(b, mask));
}

// Real lanes add, imag lanes subtract.
inline __m128 subaddf(__m128 a, __m128 b) {
  const __m128 mask = _mm_set_ps(-0.0f, 0.0f, -0.0f, 0.0f);
  return _mm_add_ps(a, _mm_xor_ps(b, mask));
}

// Two independent complex products with b's parts already broadcast, same
// per-element formula as the scalar reference (addition commuted in the
// imag lane, bitwise equal).
inline __m128 cmul2f_parts(__m128 a, __m128 br, __m128 bi) {
  const __m128 asw = _mm_shuffle_ps(a, a, _MM_SHUFFLE(2, 3, 0, 1));
  return addsubf(_mm_mul_ps(a, br), _mm_mul_ps(asw, bi));
}

// Two independent complex products.
inline __m128 cmul2f(__m128 a, __m128 b) {
  return cmul2f_parts(a, _mm_shuffle_ps(b, b, _MM_SHUFFLE(2, 2, 0, 0)),
                      _mm_shuffle_ps(b, b, _MM_SHUFFLE(3, 3, 1, 1)));
}

// conj(a) * b on both halves: re = br*ar + bi*ai, im = bi*ar - br*ai.
inline __m128 cmul_conj2f(__m128 a, __m128 b) {
  const __m128 ar = _mm_shuffle_ps(a, a, _MM_SHUFFLE(2, 2, 0, 0));
  const __m128 ai = _mm_shuffle_ps(a, a, _MM_SHUFFLE(3, 3, 1, 1));
  const __m128 bsw = _mm_shuffle_ps(b, b, _MM_SHUFFLE(2, 3, 0, 1));
  return subaddf(_mm_mul_ps(b, ar), _mm_mul_ps(bsw, ai));
}

void cmul_sse2_32(const Complex32* a, const Complex32* b, Complex32* out, std::size_t n) {
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) storec2f(out + i, cmul2f(loadc2f(a + i), loadc2f(b + i)));
  cmul_scalar(a + i, b + i, out + i, n - i);
}

void axpy_sse2_32(Complex32 alpha, const Complex32* x, Complex32* y, std::size_t n) {
  const __m128 av = bcastc1f(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) {
    const __m128 p = cmul2f(loadc2f(x + i), av);
    storec2f(y + i, _mm_add_ps(loadc2f(y + i), p));
  }
  axpy_scalar(alpha, x + i, y + i, n - i);
}

void scale_real_sse2_32(float alpha, const Complex32* x, Complex32* out, std::size_t n) {
  const __m128 av = _mm_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 2 <= n; i += 2) storec2f(out + i, _mm_mul_ps(loadc2f(x + i), av));
  scale_real_scalar(alpha, x + i, out + i, n - i);
}

// Samples p[0] and p[stride] in one register (64-bit moves only).
inline __m128 loadc2f_at(const Complex32* p, std::size_t stride) {
  const auto* q = reinterpret_cast<const __m64*>(p);
  return _mm_loadh_pi(_mm_loadl_pi(_mm_setzero_ps(), q), q + stride);
}

// Eight outputs per pass in four accumulators; as fir_block_sse2.
void fir_block_sse2_32(const Complex32* taps, std::size_t ntaps, const Complex32* ext,
                       Complex32* y, std::size_t n, std::size_t stride) {
  const std::size_t h = ntaps - 1;
  const std::size_t s2 = 2 * stride;
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const Complex32* x = ext + i * stride + h;
    __m128 a0 = _mm_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
    for (std::size_t k = 0; k <= h; ++k) {
      const __m128 tr = _mm_set1_ps(taps[k].real());
      const __m128 ti = _mm_set1_ps(taps[k].imag());
      const Complex32* p = x - k;
      a0 = _mm_add_ps(a0, cmul2f_parts(loadc2f_at(p, stride), tr, ti));
      a1 = _mm_add_ps(a1, cmul2f_parts(loadc2f_at(p + s2, stride), tr, ti));
      a2 = _mm_add_ps(a2, cmul2f_parts(loadc2f_at(p + 2 * s2, stride), tr, ti));
      a3 = _mm_add_ps(a3, cmul2f_parts(loadc2f_at(p + 3 * s2, stride), tr, ti));
    }
    storec2f(y + i, a0);
    storec2f(y + i + 2, a1);
    storec2f(y + i + 4, a2);
    storec2f(y + i + 6, a3);
  }
  fir_block_scalar(taps, ntaps, ext + i * stride, y + i, n - i, stride);
}

Complex32 cdot_conj_sse2_32(const Complex32* a, const Complex32* b, std::size_t n) {
  // v01 holds reduction lanes {0,1}, v23 lanes {2,3}: term k lands in lane
  // k mod 4 exactly like the scalar core.
  __m128 v01 = _mm_setzero_ps(), v23 = v01;
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4) {
    v01 = _mm_add_ps(v01, cmul_conj2f(loadc2f(a + k), loadc2f(b + k)));
    v23 = _mm_add_ps(v23, cmul_conj2f(loadc2f(a + k + 2), loadc2f(b + k + 2)));
  }
  Complex32 lanes[4];
  storec2f(&lanes[0], v01);
  storec2f(&lanes[2], v23);
  cdot_conj_tail(a, b, n4, n, lanes);
  const float re = (lanes[0].real() + lanes[1].real()) + (lanes[2].real() + lanes[3].real());
  const float im = (lanes[0].imag() + lanes[1].imag()) + (lanes[2].imag() + lanes[3].imag());
  return {re, im};
}

float magsq_accum_sse2_32(const Complex32* x, std::size_t n) {
  // Vector accumulator holds the four scalar reduction lanes in order.
  __m128 vacc = _mm_setzero_ps();
  const std::size_t n4 = n - n % 4;
  for (std::size_t k = 0; k < n4; k += 4) {
    const __m128 v01 = loadc2f(x + k);
    const __m128 v23 = loadc2f(x + k + 2);
    const __m128 sq01 = _mm_mul_ps(v01, v01);
    const __m128 sq23 = _mm_mul_ps(v23, v23);
    // term = re^2 + im^2, one add per term like the scalar core.
    const __m128 s01 = _mm_add_ps(sq01, _mm_shuffle_ps(sq01, sq01, _MM_SHUFFLE(3, 3, 1, 1)));
    const __m128 s23 = _mm_add_ps(sq23, _mm_shuffle_ps(sq23, sq23, _MM_SHUFFLE(3, 3, 1, 1)));
    // Gather the even lanes [t0,t1,t2,t3] and accumulate lane-wise.
    vacc = _mm_add_ps(vacc, _mm_shuffle_ps(s01, s23, _MM_SHUFFLE(2, 0, 2, 0)));
  }
  float lanes[4];
  _mm_storeu_ps(lanes, vacc);
  magsq_accum_tail(x, n4, n, lanes);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

}  // namespace

template <>
const KernelOps<double>& sse2_ops<double>() {
  static const KernelOps<double> ops = {
      &cmul_sse2,         &axpy_sse2,         &scale_real_sse2,
      &cdot_conj_sse2,    &magsq_accum_sse2,  &radix2_stage_sse2,
      &radix4_stage_sse2, &fir_block_sse2,
  };
  return ops;
}

// The f32 FFT stages run the scalar cores: two complex<float> per __m128
// plus the shuffles measured ~2x slower than the scalar loop
// (docs/PERFORMANCE.md, "Kernel ISA tiers").
template <>
const KernelOps<float>& sse2_ops<float>() {
  static const KernelOps<float> ops = {
      &cmul_sse2_32,        &axpy_sse2_32,
      &scale_real_sse2_32,  &cdot_conj_sse2_32,
      &magsq_accum_sse2_32, &radix2_stage_scalar<float>,
      &radix4_stage_scalar<float>, &fir_block_sse2_32,
  };
  return ops;
}

}  // namespace ff::dsp::kernels::detail

#endif  // FF_SIMD_ENABLED && x86-64
