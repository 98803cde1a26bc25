// Vectorized complex-arithmetic kernel layer (docs/PERFORMANCE.md, "Kernel
// layer").
//
// Every IQ hot loop in the repository — FIR filtering, CFO rotation, FFT
// butterflies, correlation sums, cancellation — bottoms out in a handful of
// block primitives. This header is their single home: a scalar reference
// implementation (namespace kernels::scalar, always compiled) plus SSE2 and
// AVX2 paths (compiled when the FF_SIMD CMake option is ON, selected at
// runtime via __builtin_cpu_supports). Callers use the dispatched free
// functions; `active_isa()` reports which path is live so benchmarks and
// telemetry can record it.
//
// The bitwise contract — the reason this layer can sit under the streaming
// runtime's determinism guarantees:
//
//   * Elementwise kernels (cmul, axpy, scale_real, rotate_phasor) perform
//     IDENTICAL per-element arithmetic in every ISA: the textbook complex
//     product re = ar*br - ai*bi, im = ar*bi + ai*br, no FMA contraction
//     (the kernel TUs are built -ffp-contract=off), no re-association.
//     Scalar and SIMD outputs are equal bit for bit, which
//     tests/kernels_test.cpp asserts on aligned, unaligned and odd-tail
//     spans.
//   * fir_block keeps each output in a register and sums its taps in order
//     from +0 — per output the serial association of a delay-line loop, in
//     every ISA (scalar and SIMD differ only in how many outputs one pass
//     carries).
//   * What the contract does not pin is which NaN a NaN result carries. The
//     SSE2 tier subtracts by flipping a sign bit, which flips a NaN's sign
//     too, and when two NaNs meet in one add x86 returns the first
//     operand's, whose place the compiler picks. A NaN output is NaN in
//     every tier; its sign and payload may differ (tests/dsp_test.cpp,
//     Resample.MatchesFilterEveryOutputWithInfAndNaN).
//   * Reduction kernels (cdot_conj, magsq_accum) define their association
//     explicitly: term k accumulates into partial sum k mod 4, and the
//     result is (p0 + p1) + (p2 + p3). The scalar reference implements the
//     same four-lane schedule, so SIMD and scalar reductions are also
//     bitwise equal — a deterministic function of the input alone.
//
// Alignment: kernels accept any alignment (unaligned SIMD loads); 32-byte
// aligned storage (Workspace, AlignedCVec) is preferred for throughput.
// In-place operation is supported when an output span IS an input span
// (same pointer); partially overlapping spans are not.
#pragma once

#include <cstddef>
#include <type_traits>

#include "common/types.hpp"
#include "dsp/kernels/workspace.hpp"

namespace ff::dsp::kernels {

/// Instruction set the dispatched kernels are running on.
enum class Isa { kScalar = 0, kSse2 = 1, kAvx2 = 2 };

/// The ISA resolved at process start: the widest compiled-in path the CPU
/// supports, overridable downward with FF_KERNEL_ISA=scalar|sse2|avx2.
Isa active_isa();

const char* isa_name(Isa isa);
/// isa_name(active_isa()) — what bench JSON and telemetry record.
const char* isa_name();

/// True when this build compiled the SIMD paths (FF_SIMD=ON on x86-64).
bool simd_compiled();

// ---------------------------------------------------------------- elementwise

/// out[i] = a[i] * b[i]. `out` may alias `a` or `b` exactly.
void cmul(CSpan a, CSpan b, CMutSpan out);

/// y[i] += alpha * x[i]. Its product x[i] * alpha is the term every FIR
/// output sums (fir_block below); dsp::convolve scatters with it.
void axpy(Complex alpha, CSpan x, CMutSpan y);

/// out[i] = alpha * x[i] with a real scalar (the inverse-FFT 1/N).
void scale_real(double alpha, CSpan x, CMutSpan out);

/// out[i] = x[i] * phasor[i]: apply a precomputed unit-phasor table (CFO
/// rotate/restore). Same arithmetic as cmul; a distinct entry point because
/// rotators are a named stage of the relay's forward path.
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out);

// ----------------------------------------------------------------- reductions

/// sum_k conj(a[k]) * b[k] with the fixed four-lane association above.
Complex cdot_conj(CSpan a, CSpan b);

/// sum_k |x[k]|^2 (re^2 + im^2 per element, then four-lane accumulation).
double magsq_accum(CSpan x);

// ----------------------------------------------------------------- FIR block

/// The output-stationary FIR under every filter (dsp::fir_core, the
/// decimating downsample, the polyphase upsample):
///   y[i] = sum_{k=0..h} taps[k] * ext[i*stride + h - k],  h = taps.size() - 1.
/// Each output stays in registers and sums its terms in tap order k = 0..h
/// from +0; each term is the product axpy forms (x * t, then add). So the
/// result equals zero-filling y and running one axpy per tap over
/// ext[h - k + i*stride], bit for bit — and equals push() on a delay line.
/// `stride` > 1 computes only every stride-th output of the unit-stride
/// filter (decimation). `ext` must hold (y.size()-1)*stride + taps.size()
/// samples and must not overlap `y`.
void fir_block(CSpan taps, CSpan ext, CMutSpan y, std::size_t stride = 1);

// ------------------------------------------------------------- FFT butterflies
// Stage kernels for the Stockham mixed-radix FFT (dsp::FftPlan). `src` and
// `dst` are distinct n-sample buffers; `tw` points at the stage's twiddle
// run (1 entry per butterfly for radix-2, a {w, w^2, w^3} triple for
// radix-4). `half`/`quarter` is the butterfly count, `m` the intra-stage
// stride. Twiddle tables are pre-conjugated for the inverse transform;
// radix-4 additionally needs `invert` for its +/-i rotation.

void radix2_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t half, std::size_t m);
void radix4_stage(const Complex* src, Complex* dst, const Complex* tw,
                  std::size_t quarter, std::size_t m, bool invert);

// ------------------------------------------------------------ float32 family
// Overloads on the CSpan32/CMutSpan32 types (common/types.hpp): the same
// kernels with float lanes, doubling SIMD width per register. Both families
// run one template body per kernel (kernels.cpp), so the bitwise
// scalar==SIMD contract and the four-lane reduction schedule are the same
// code — but the f32 family is its OWN checksum family: f32 results are
// deterministic across ISAs/blocks/threads yet numerically distinct from
// the double kernels (docs/PERFORMANCE.md, "The float32 family").

void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out);
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y);
void scale_real(float alpha, CSpan32 x, CMutSpan32 out);
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out);
Complex32 cdot_conj(CSpan32 a, CSpan32 b);
float magsq_accum(CSpan32 x);
void radix2_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t half, std::size_t m);
void radix4_stage(const Complex32* src, Complex32* dst, const Complex32* tw,
                  std::size_t quarter, std::size_t m, bool invert);
void fir_block(CSpan32 taps, CSpan32 ext, CMutSpan32 y, std::size_t stride = 1);

// Precision edge conversion (scalar by design: one rounding per sample, the
// only place a value changes width). narrow() rounds-to-nearest into f32;
// widen() is exact, so narrow-then-widen of any f32-representable value is
// the identity (tests/kernels_test.cpp pins that).
void widen(CSpan32 x, CMutSpan out);
void narrow(CSpan x, CMutSpan32 out);

/// Allocating conveniences for configuration-time conversion (tap sets,
/// twiddle constants). Hot paths use narrow()/widen() into workspace slots.
CVec32 narrowed(CSpan x);
CVec widened(CSpan32 x);

// Precision-generic stage bodies (a template over T in {double, float})
// keep their configuration in double and their samples at T. These helpers
// are the only places such a body changes width.

/// Configuration-time values (taps) at precision T: moved through unchanged
/// for double, narrowed() for float.
template <typename T>
std::vector<std::complex<T>> to_precision(CVec x) {
  if constexpr (std::is_same_v<T, double>)
    return x;
  else
    return narrowed(x);
}

/// A block at precision T: `x` itself for double; for float, `x` narrowed
/// into the Workspace's f32 slot `slot`. Constness follows `x`.
template <typename T, typename Sample>
auto block_at(std::span<Sample> x, Workspace& ws, std::size_t slot) {
  using Out = std::span<std::conditional_t<std::is_const_v<Sample>,
                                           const std::complex<T>, std::complex<T>>>;
  if constexpr (std::is_same_v<T, double>) {
    return Out{x};
  } else {
    CMutSpan32 y = ws.get<float>(slot, x.size());
    narrow(x, y);
    return Out{y};
  }
}

/// Write a block_at() result back into `out`: widen() for float; nothing
/// for double, where the block IS `out`.
template <typename T>
void store_block(std::span<const std::complex<T>> y, CMutSpan out) {
  if constexpr (!std::is_same_v<T, double>) widen(y, out);
}

// ------------------------------------------------------------ scalar reference
// Always compiled; what the dispatched functions fall back to, and what
// tests/bench compare the SIMD paths against.
namespace scalar {
void cmul(CSpan a, CSpan b, CMutSpan out);
void axpy(Complex alpha, CSpan x, CMutSpan y);
void scale_real(double alpha, CSpan x, CMutSpan out);
void rotate_phasor(CSpan x, CSpan phasors, CMutSpan out);
Complex cdot_conj(CSpan a, CSpan b);
double magsq_accum(CSpan x);
void fir_block(CSpan taps, CSpan ext, CMutSpan y, std::size_t stride = 1);
void cmul(CSpan32 a, CSpan32 b, CMutSpan32 out);
void axpy(Complex32 alpha, CSpan32 x, CMutSpan32 y);
void scale_real(float alpha, CSpan32 x, CMutSpan32 out);
void rotate_phasor(CSpan32 x, CSpan32 phasors, CMutSpan32 out);
Complex32 cdot_conj(CSpan32 a, CSpan32 b);
float magsq_accum(CSpan32 x);
void fir_block(CSpan32 taps, CSpan32 ext, CMutSpan32 y, std::size_t stride = 1);
}  // namespace scalar

}  // namespace ff::dsp::kernels
