// Internal glue shared by the kernel TUs (scalar, SSE2, AVX2). Not installed
// as public API — include kernels.hpp instead.
//
// The scalar cores here are the bitwise ground truth: SIMD TUs reuse them for
// loop tails so a vectorized call is indistinguishable from the scalar one on
// any span length. Keep every formula in this header in sync with the
// contract documented in kernels.hpp (no FMA, fixed association).
#pragma once

#include <complex>
#include <cstddef>

#include "common/types.hpp"

namespace ff::dsp::kernels::detail {

// Pointer-level dispatch table for one sample precision T (double or float:
// an AVX2 register holds 2 complex<double> or 4 complex<float>). One
// instance per compiled ISA and precision; resolve() in kernels.cpp picks a
// pair at process start.
template <typename T>
struct KernelOps {
  using C = std::complex<T>;
  void (*cmul)(const C*, const C*, C*, std::size_t);
  void (*axpy)(C, const C*, C*, std::size_t);
  void (*scale_real)(T, const C*, C*, std::size_t);
  C (*cdot_conj)(const C*, const C*, std::size_t);
  T (*magsq_accum)(const C*, std::size_t);
  void (*radix2_stage)(const C*, C*, const C*, std::size_t, std::size_t);
  void (*radix4_stage)(const C*, C*, const C*, std::size_t, std::size_t, bool);
  void (*fir_block)(const C*, std::size_t, const C*, C*, std::size_t, std::size_t);
};

// The textbook complex product, spelled out on raw components so no
// operator overload (which libstdc++ may route through __mulsc3-style
// scaling on other platforms) can change the arithmetic. re = ar*br - ai*bi,
// im = ar*bi + ai*br — exactly what the SIMD paths compute. At T = float
// every multiply/add is a single-precision IEEE operation (no
// double-rounded intermediates), matching the f32 SIMD lanes.
template <typename T>
inline std::complex<T> cmul_one(std::complex<T> a, std::complex<T> b) {
  const T ar = a.real(), ai = a.imag();
  const T br = b.real(), bi = b.imag();
  return {ar * br - ai * bi, ar * bi + ai * br};
}

// conj(a) * b: re = ar*br + ai*bi, im = ar*bi - ai*br.
template <typename T>
inline std::complex<T> cmul_conj_one(std::complex<T> a, std::complex<T> b) {
  const T ar = a.real(), ai = a.imag();
  const T br = b.real(), bi = b.imag();
  return {ar * br + ai * bi, ar * bi - ai * br};
}

// ----------------------------------------------------------- scalar cores
// Defined in kernels.cpp and explicitly instantiated there for double and
// float (so every caller runs the one copy compiled -ffp-contract=off with
// baseline flags); declared here so the SIMD TUs can call them for tails
// and tiny spans.

template <typename T>
void cmul_scalar(const std::complex<T>* a, const std::complex<T>* b,
                 std::complex<T>* out, std::size_t n);
template <typename T>
void axpy_scalar(std::complex<T> alpha, const std::complex<T>* x, std::complex<T>* y,
                 std::size_t n);
template <typename T>
void scale_real_scalar(T alpha, const std::complex<T>* x, std::complex<T>* out,
                       std::size_t n);
template <typename T>
std::complex<T> cdot_conj_scalar(const std::complex<T>* a, const std::complex<T>* b,
                                 std::size_t n);
template <typename T>
T magsq_accum_scalar(const std::complex<T>* x, std::size_t n);
template <typename T>
void radix2_stage_scalar(const std::complex<T>* src, std::complex<T>* dst,
                         const std::complex<T>* tw, std::size_t half, std::size_t m);
template <typename T>
void radix4_stage_scalar(const std::complex<T>* src, std::complex<T>* dst,
                         const std::complex<T>* tw, std::size_t quarter, std::size_t m,
                         bool invert);
template <typename T>
void fir_block_scalar(const std::complex<T>* taps, std::size_t ntaps,
                      const std::complex<T>* ext, std::complex<T>* y, std::size_t n,
                      std::size_t stride);

// Tail helpers that continue a reduction started by a SIMD loop: terms keep
// their round-robin lane assignment (term k -> lane k mod 4) so the final
// (p0 + p1) + (p2 + p3) combine matches the scalar reference bit for bit.
template <typename T>
void cdot_conj_tail(const std::complex<T>* a, const std::complex<T>* b,
                    std::size_t start, std::size_t n, std::complex<T> lanes[4]);
template <typename T>
void magsq_accum_tail(const std::complex<T>* x, std::size_t start, std::size_t n,
                      T lanes[4]);

template <typename T>
const KernelOps<T>& scalar_ops();
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
template <typename T>
const KernelOps<T>& sse2_ops();
template <typename T>
const KernelOps<T>& avx2_ops();
#endif

}  // namespace ff::dsp::kernels::detail
