#include "dsp/kernels/kernels.hpp"

#include <cstdlib>
#include <cstring>
#include <string_view>
#include <type_traits>

#include "common/check.hpp"
#include "dsp/kernels/kernels_detail.hpp"

namespace ff::dsp::kernels {
namespace detail {

// ----------------------------------------------------------- scalar cores
// This TU is compiled -ffp-contract=off: the mul/add sequences below must
// not be fused into FMA, or scalar and SIMD results would diverge. Each core
// is one template over T in {double, float}, explicitly instantiated below:
// at T = float every operation is a single-precision IEEE multiply/add (no
// double-precision intermediates), so the f32 SIMD lanes reproduce them bit
// for bit.

template <typename T>
void cmul_scalar(const std::complex<T>* a, const std::complex<T>* b,
                 std::complex<T>* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = cmul_one(a[i], b[i]);
}

template <typename T>
void cmac_scalar(const std::complex<T>* a, const std::complex<T>* b,
                 std::complex<T>* acc, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const std::complex<T> p = cmul_one(a[i], b[i]);
    acc[i] = {acc[i].real() + p.real(), acc[i].imag() + p.imag()};
  }
}

template <typename T>
void axpy_scalar(std::complex<T> alpha, const std::complex<T>* x, std::complex<T>* y,
                 std::size_t n) {
  const T ar = alpha.real(), ai = alpha.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const T xr = x[i].real(), xi = x[i].imag();
    y[i] = {y[i].real() + (xr * ar - xi * ai), y[i].imag() + (xr * ai + xi * ar)};
  }
}

template <typename T>
void scale_scalar(std::complex<T> alpha, const std::complex<T>* x,
                  std::complex<T>* out, std::size_t n) {
  const T ar = alpha.real(), ai = alpha.imag();
  for (std::size_t i = 0; i < n; ++i) {
    const T xr = x[i].real(), xi = x[i].imag();
    out[i] = {xr * ar - xi * ai, xr * ai + xi * ar};
  }
}

template <typename T>
void scale_real_scalar(T alpha, const std::complex<T>* x, std::complex<T>* out,
                       std::size_t n) {
  for (std::size_t i = 0; i < n; ++i)
    out[i] = {x[i].real() * alpha, x[i].imag() * alpha};
}

template <typename T>
void cdot_conj_tail(const std::complex<T>* a, const std::complex<T>* b,
                    std::size_t start, std::size_t n, std::complex<T> lanes[4]) {
  for (std::size_t k = start; k < n; ++k) {
    const std::complex<T> p = cmul_conj_one(a[k], b[k]);
    std::complex<T>& acc = lanes[k % 4];
    acc = {acc.real() + p.real(), acc.imag() + p.imag()};
  }
}

template <typename T>
std::complex<T> cdot_conj_scalar(const std::complex<T>* a, const std::complex<T>* b,
                                 std::size_t n) {
  std::complex<T> lanes[4] = {};
  cdot_conj_tail(a, b, 0, n, lanes);
  const std::complex<T> s01{lanes[0].real() + lanes[1].real(),
                            lanes[0].imag() + lanes[1].imag()};
  const std::complex<T> s23{lanes[2].real() + lanes[3].real(),
                            lanes[2].imag() + lanes[3].imag()};
  return {s01.real() + s23.real(), s01.imag() + s23.imag()};
}

template <typename T>
void magsq_accum_tail(const std::complex<T>* x, std::size_t start, std::size_t n,
                      T lanes[4]) {
  for (std::size_t k = start; k < n; ++k) {
    const T re = x[k].real(), im = x[k].imag();
    lanes[k % 4] += re * re + im * im;
  }
}

template <typename T>
T magsq_accum_scalar(const std::complex<T>* x, std::size_t n) {
  T lanes[4] = {};
  magsq_accum_tail(x, 0, n, lanes);
  return (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
}

template <typename T>
void split_scalar(const std::complex<T>* x, T* re, T* im, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = x[i].real();
    im[i] = x[i].imag();
  }
}

template <typename T>
void interleave_scalar(const T* re, const T* im, std::complex<T>* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) out[i] = {re[i], im[i]};
}

template <typename T>
void radix2_stage_scalar(const std::complex<T>* src, std::complex<T>* dst,
                         const std::complex<T>* tw, std::size_t half, std::size_t m) {
  using C = std::complex<T>;
  for (std::size_t j = 0; j < half; ++j) {
    const C w = tw[j];
    const C* s0 = src + m * j;
    const C* s1 = src + m * (j + half);
    C* d0 = dst + m * (2 * j);
    C* d1 = d0 + m;
    for (std::size_t k = 0; k < m; ++k) {
      const C c0 = s0[k];
      const C c1 = s1[k];
      d0[k] = {c0.real() + c1.real(), c0.imag() + c1.imag()};
      d1[k] = cmul_one(w, {c0.real() - c1.real(), c0.imag() - c1.imag()});
    }
  }
}

template <typename T>
void radix4_stage_scalar(const std::complex<T>* src, std::complex<T>* dst,
                         const std::complex<T>* tw, std::size_t quarter, std::size_t m,
                         bool invert) {
  using C = std::complex<T>;
  for (std::size_t j = 0; j < quarter; ++j) {
    const C w1 = tw[3 * j];
    const C w2 = tw[3 * j + 1];
    const C w3 = tw[3 * j + 2];
    const C* s0 = src + m * j;
    const C* s1 = src + m * (j + quarter);
    const C* s2 = src + m * (j + 2 * quarter);
    const C* s3 = src + m * (j + 3 * quarter);
    C* d0 = dst + m * (4 * j);
    C* d1 = d0 + m;
    C* d2 = d1 + m;
    C* d3 = d2 + m;
    for (std::size_t k = 0; k < m; ++k) {
      const C c0 = s0[k], c1 = s1[k], c2 = s2[k], c3 = s3[k];
      const C e0{c0.real() + c2.real(), c0.imag() + c2.imag()};
      const C e1{c0.real() - c2.real(), c0.imag() - c2.imag()};
      const C e2{c1.real() + c3.real(), c1.imag() + c3.imag()};
      const C t{c1.real() - c3.real(), c1.imag() - c3.imag()};
      // e3 = -i*t (forward) or +i*t (inverse): pure component swap + sign
      // flip, exact in IEEE arithmetic.
      const C e3 = invert ? C{-t.imag(), t.real()} : C{t.imag(), -t.real()};
      d0[k] = {e0.real() + e2.real(), e0.imag() + e2.imag()};
      d1[k] = cmul_one(w1, {e1.real() + e3.real(), e1.imag() + e3.imag()});
      d2[k] = cmul_one(w2, {e0.real() - e2.real(), e0.imag() - e2.imag()});
      d3[k] = cmul_one(w3, {e1.real() - e3.real(), e1.imag() - e3.imag()});
    }
  }
}

template <typename T>
const KernelOps<T>& scalar_ops() {
  static const KernelOps<T> ops = {
      &cmul_scalar<T>,        &cmac_scalar<T>,        &axpy_scalar<T>,
      &scale_scalar<T>,       &scale_real_scalar<T>,  &cdot_conj_scalar<T>,
      &magsq_accum_scalar<T>, &split_scalar<T>,       &interleave_scalar<T>,
      &radix2_stage_scalar<T>, &radix4_stage_scalar<T>,
  };
  return ops;
}

// The SIMD TUs call the cores for their tails; instantiate every one here.
#define FF_INSTANTIATE_SCALAR_CORES(T)                                              \
  using C##T = std::complex<T>;                                                     \
  template void cmul_scalar(const C##T*, const C##T*, C##T*, std::size_t);         \
  template void cmac_scalar(const C##T*, const C##T*, C##T*, std::size_t);         \
  template void axpy_scalar(C##T, const C##T*, C##T*, std::size_t);                \
  template void scale_scalar(C##T, const C##T*, C##T*, std::size_t);               \
  template void scale_real_scalar(T, const C##T*, C##T*, std::size_t);             \
  template C##T cdot_conj_scalar(const C##T*, const C##T*, std::size_t);           \
  template T magsq_accum_scalar(const C##T*, std::size_t);                         \
  template void split_scalar(const C##T*, T*, T*, std::size_t);                    \
  template void interleave_scalar(const T*, const T*, C##T*, std::size_t);         \
  template void radix2_stage_scalar(const C##T*, C##T*, const C##T*, std::size_t,  \
                                    std::size_t);                                   \
  template void radix4_stage_scalar(const C##T*, C##T*, const C##T*, std::size_t,  \
                                    std::size_t, bool);                             \
  template void cdot_conj_tail(const C##T*, const C##T*, std::size_t, std::size_t, \
                               C##T[4]);                                            \
  template void magsq_accum_tail(const C##T*, std::size_t, std::size_t, T[4]);     \
  template const KernelOps<T>& scalar_ops<T>();
FF_INSTANTIATE_SCALAR_CORES(double)
FF_INSTANTIATE_SCALAR_CORES(float)
#undef FF_INSTANTIATE_SCALAR_CORES

namespace {

struct Dispatch {
  const KernelOps<double>* f64;
  const KernelOps<float>* f32;
  Isa isa;
};

Dispatch resolve() {
  Isa want = Isa::kScalar;
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
  // SSE2 is part of the x86-64 baseline; AVX2 needs a runtime check.
  want = __builtin_cpu_supports("avx2") ? Isa::kAvx2 : Isa::kSse2;
#endif
  if (const char* env = std::getenv("FF_KERNEL_ISA")) {
    const std::string_view v{env};
    // The override can only narrow: forcing an ISA the build/CPU lacks
    // falls back to the widest supported one.
    if (v == "scalar") {
      want = Isa::kScalar;
    } else if (v == "sse2" && want != Isa::kScalar) {
      want = Isa::kSse2;
    } else if (v == "avx2") {
      // keep `want` — avx2 is already the widest we would pick.
    }
  }
  switch (want) {
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
    case Isa::kAvx2:
      return {&avx2_ops<double>(), &avx2_ops<float>(), Isa::kAvx2};
    case Isa::kSse2:
      return {&sse2_ops<double>(), &sse2_ops<float>(), Isa::kSse2};
#endif
    default:
      return {&scalar_ops<double>(), &scalar_ops<float>(), Isa::kScalar};
  }
}

const Dispatch& dispatch() {
  static const Dispatch d = resolve();
  return d;
}

// The dispatched table for precision T.
template <typename T>
const KernelOps<T>& ops() {
  if constexpr (std::is_same_v<T, double>)
    return *dispatch().f64;
  else
    return *dispatch().f32;
}

}  // namespace
}  // namespace detail

Isa active_isa() { return detail::dispatch().isa; }

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kSse2:
      return "sse2";
    case Isa::kAvx2:
      return "avx2";
    default:
      return "scalar";
  }
}

const char* isa_name() { return isa_name(active_isa()); }

bool simd_compiled() {
#if defined(FF_SIMD_ENABLED) && (defined(__x86_64__) || defined(_M_X64))
  return true;
#else
  return false;
#endif
}

// ------------------------------------------------------------- span entry points
// Each entry point is written once, over the sample precision T and the
// table it runs on: the dispatched overloads below pass detail::ops<T>(),
// the kernels::scalar reference overloads detail::scalar_ops<T>().

namespace {

template <typename T>
using Span = std::span<const std::complex<T>>;
template <typename T>
using MutSpan = std::span<std::complex<T>>;
template <typename T>
using Ops = detail::KernelOps<T>;

template <typename T>
void cmul_on(const Ops<T>& ops, Span<T> a, Span<T> b, MutSpan<T> out) {
  FF_CHECK(a.size() == b.size() && a.size() == out.size());
  ops.cmul(a.data(), b.data(), out.data(), a.size());
}

template <typename T>
void cmac_on(const Ops<T>& ops, Span<T> a, Span<T> b, MutSpan<T> acc) {
  FF_CHECK(a.size() == b.size() && a.size() == acc.size());
  ops.cmac(a.data(), b.data(), acc.data(), a.size());
}

template <typename T>
void axpy_on(const Ops<T>& ops, std::complex<T> alpha, Span<T> x, MutSpan<T> y) {
  FF_CHECK(x.size() == y.size());
  ops.axpy(alpha, x.data(), y.data(), x.size());
}

template <typename T>
void scale_on(const Ops<T>& ops, std::complex<T> alpha, Span<T> x, MutSpan<T> out) {
  FF_CHECK(x.size() == out.size());
  ops.scale(alpha, x.data(), out.data(), x.size());
}

template <typename T>
void scale_real_on(const Ops<T>& ops, T alpha, Span<T> x, MutSpan<T> out) {
  FF_CHECK(x.size() == out.size());
  ops.scale_real(alpha, x.data(), out.data(), x.size());
}

template <typename T>
void rotate_phasor_on(const Ops<T>& ops, Span<T> x, Span<T> phasors, MutSpan<T> out) {
  FF_CHECK(x.size() == phasors.size() && x.size() == out.size());
  ops.cmul(x.data(), phasors.data(), out.data(), x.size());
}

template <typename T>
std::complex<T> cdot_conj_on(const Ops<T>& ops, Span<T> a, Span<T> b) {
  FF_CHECK(a.size() == b.size());
  return ops.cdot_conj(a.data(), b.data(), a.size());
}

template <typename T>
T magsq_accum_on(const Ops<T>& ops, Span<T> x) {
  return ops.magsq_accum(x.data(), x.size());
}

template <typename T>
void split_on(const Ops<T>& ops, Span<T> x, std::span<T> re, std::span<T> im) {
  FF_CHECK(x.size() == re.size() && x.size() == im.size());
  ops.split(x.data(), re.data(), im.data(), x.size());
}

template <typename T>
void interleave_on(const Ops<T>& ops, std::span<const T> re, std::span<const T> im,
                   MutSpan<T> out) {
  FF_CHECK(re.size() == im.size() && re.size() == out.size());
  ops.interleave(re.data(), im.data(), out.data(), out.size());
}

}  // namespace

using detail::ops;
using detail::scalar_ops;

void cmul(CSpan a, CSpan b, CMutSpan out) { cmul_on(ops<double>(), a, b, out); }
void cmac(CSpan a, CSpan b, CMutSpan acc) { cmac_on(ops<double>(), a, b, acc); }
void axpy(Complex alpha, CSpan x, CMutSpan y) { axpy_on(ops<double>(), alpha, x, y); }
void scale(Complex alpha, CSpan x, CMutSpan out) { scale_on(ops<double>(), alpha, x, out); }
void scale_real(double alpha, CSpan x, CMutSpan out) {
  scale_real_on(ops<double>(), alpha, x, out);
}
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out) {
  rotate_phasor_on(ops<double>(), x, phasors, out);
}
Complex cdot_conj(CSpan a, CSpan b) { return cdot_conj_on(ops<double>(), a, b); }
double magsq_accum(CSpan x) { return magsq_accum_on(ops<double>(), x); }
void split(CSpan x, std::span<double> re, std::span<double> im) {
  split_on(ops<double>(), x, re, im);
}
void interleave(std::span<const double> re, std::span<const double> im, CMutSpan out) {
  interleave_on(ops<double>(), re, im, out);
}
void radix2_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t half, std::size_t m) {
  ops<double>().radix2_stage(src, dst, tw, half, m);
}
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t quarter, std::size_t m, bool invert) {
  ops<double>().radix4_stage(src, dst, tw, quarter, m, invert);
}

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out) { cmul_on(ops<float>(), a, b, out); }
void cmac(CSpan32 a, CSpan32 b, CMutSpan32 acc) { cmac_on(ops<float>(), a, b, acc); }
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y) { axpy_on(ops<float>(), alpha, x, y); }
void scale(Complex32 alpha, CSpan32 x, CMutSpan32 out) {
  scale_on(ops<float>(), alpha, x, out);
}
void scale_real(float alpha, CSpan32 x, CMutSpan32 out) {
  scale_real_on(ops<float>(), alpha, x, out);
}
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out) {
  rotate_phasor_on(ops<float>(), x, phasors, out);
}
Complex32 cdot_conj(CSpan32 a, CSpan32 b) { return cdot_conj_on(ops<float>(), a, b); }
float magsq_accum(CSpan32 x) { return magsq_accum_on(ops<float>(), x); }
void split(CSpan32 x, std::span<float> re, std::span<float> im) {
  split_on(ops<float>(), x, re, im);
}
void interleave(std::span<const float> re, std::span<const float> im, CMutSpan32 out) {
  interleave_on(ops<float>(), re, im, out);
}
void radix2_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t half, std::size_t m) {
  ops<float>().radix2_stage(src, dst, tw, half, m);
}
void radix4_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t quarter, std::size_t m, bool invert) {
  ops<float>().radix4_stage(src, dst, tw, quarter, m, invert);
}

// ------------------------------------------------ precision edge conversion

void widen(CSpan32 x, CMutSpan out) {
  FF_CHECK(x.size() == out.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = {static_cast<double>(x[i].real()), static_cast<double>(x[i].imag())};
}

void narrow(CSpan x, CMutSpan32 out) {
  FF_CHECK(x.size() == out.size());
  for (std::size_t i = 0; i < x.size(); ++i)
    out[i] = {static_cast<float>(x[i].real()), static_cast<float>(x[i].imag())};
}

CVec32 narrowed(CSpan x) {
  CVec32 out(x.size());
  narrow(x, out);
  return out;
}

CVec widened(CSpan32 x) {
  CVec out(x.size());
  widen(x, out);
  return out;
}

// ------------------------------------------------------------ scalar reference

namespace scalar {

void cmul(CSpan a, CSpan b, CMutSpan out) { cmul_on(scalar_ops<double>(), a, b, out); }
void cmac(CSpan a, CSpan b, CMutSpan acc) { cmac_on(scalar_ops<double>(), a, b, acc); }
void axpy(Complex alpha, CSpan x, CMutSpan y) {
  axpy_on(scalar_ops<double>(), alpha, x, y);
}
void scale(Complex alpha, CSpan x, CMutSpan out) {
  scale_on(scalar_ops<double>(), alpha, x, out);
}
void scale_real(double alpha, CSpan x, CMutSpan out) {
  scale_real_on(scalar_ops<double>(), alpha, x, out);
}
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out) {
  rotate_phasor_on(scalar_ops<double>(), x, phasors, out);
}
Complex cdot_conj(CSpan a, CSpan b) { return cdot_conj_on(scalar_ops<double>(), a, b); }
double magsq_accum(CSpan x) { return magsq_accum_on(scalar_ops<double>(), x); }
void split(CSpan x, std::span<double> re, std::span<double> im) {
  split_on(scalar_ops<double>(), x, re, im);
}
void interleave(std::span<const double> re, std::span<const double> im, CMutSpan out) {
  interleave_on(scalar_ops<double>(), re, im, out);
}
void radix2_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t half, std::size_t m) {
  detail::radix2_stage_scalar(src, dst, tw, half, m);
}
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t quarter, std::size_t m, bool invert) {
  detail::radix4_stage_scalar(src, dst, tw, quarter, m, invert);
}

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out) { cmul_on(scalar_ops<float>(), a, b, out); }
void cmac(CSpan32 a, CSpan32 b, CMutSpan32 acc) { cmac_on(scalar_ops<float>(), a, b, acc); }
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y) {
  axpy_on(scalar_ops<float>(), alpha, x, y);
}
void scale(Complex32 alpha, CSpan32 x, CMutSpan32 out) {
  scale_on(scalar_ops<float>(), alpha, x, out);
}
void scale_real(float alpha, CSpan32 x, CMutSpan32 out) {
  scale_real_on(scalar_ops<float>(), alpha, x, out);
}
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out) {
  rotate_phasor_on(scalar_ops<float>(), x, phasors, out);
}
Complex32 cdot_conj(CSpan32 a, CSpan32 b) { return cdot_conj_on(scalar_ops<float>(), a, b); }
float magsq_accum(CSpan32 x) { return magsq_accum_on(scalar_ops<float>(), x); }
void split(CSpan32 x, std::span<float> re, std::span<float> im) {
  split_on(scalar_ops<float>(), x, re, im);
}
void interleave(std::span<const float> re, std::span<const float> im, CMutSpan32 out) {
  interleave_on(scalar_ops<float>(), re, im, out);
}
void radix2_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t half, std::size_t m) {
  detail::radix2_stage_scalar(src, dst, tw, half, m);
}
void radix4_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t quarter, std::size_t m, bool invert) {
  detail::radix4_stage_scalar(src, dst, tw, quarter, m, invert);
}

}  // namespace scalar
}  // namespace ff::dsp::kernels
