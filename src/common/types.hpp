// Fundamental scalar and buffer types shared by every FastForward module.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <span>
#include <variant>
#include <vector>

namespace ff {

/// Complex baseband sample. Double precision throughout: the cancellation
/// experiments measure residuals 110 dB below the signal, which is close to
/// the float32 mantissa floor; double keeps numerical noise ~250 dB down.
using Complex = std::complex<double>;

/// A contiguous buffer of IQ samples.
using CVec = std::vector<Complex>;

/// Non-owning views used across module boundaries.
using CSpan = std::span<const Complex>;
using CMutSpan = std::span<Complex>;

using RSpan = std::span<const double>;

/// Single-precision twin of the sample types, for the float32 kernel family
/// (docs/PERFORMANCE.md, "The float32 family"). The relay's forward path can
/// run in f32 — twice the SIMD lanes per register — when ~-120 dB numerical
/// noise is acceptable; the default stays double for the reason above.
using Complex32 = std::complex<float>;
using CVec32 = std::vector<Complex32>;
using CSpan32 = std::span<const Complex32>;
using CMutSpan32 = std::span<Complex32>;

/// Arithmetic precision of a sample-processing path. Components that offer a
/// float32 fast path (relay::ForwardPipeline, the stream elements) take this
/// in their config; kF64 is always the default and the accuracy reference.
/// Each precision has its OWN pinned determinism checksums — switching
/// precision changes the bits by design, but within one precision the output
/// stays invariant across block sizes, threads and SIMD on/off.
enum class Precision : std::uint8_t { kF64, kF32 };

/// Canonical names ("f64" / "f32") — the `precision=` Params key and the
/// --precision CLI flag use these.
inline const char* to_string(Precision p) {
  return p == Precision::kF32 ? "f32" : "f64";
}

/// One engine E<T> for the precision a component runs at. The DSP core is
/// generic over the sample type T (dsp::FirFilter<T>, dsp::FftPlan<T>), and
/// a component configured with a Precision owns the one instantiation it
/// runs, never both.
template <template <typename> class E>
using AtPrecision = std::variant<E<double>, E<float>>;

/// Build it: make(T{}) for the T that `precision` names.
template <template <typename> class E, typename Make>
AtPrecision<E> at_precision(Precision precision, Make&& make) {
  if (precision == Precision::kF32) return make(float{});
  return make(double{});
}

inline constexpr Complex kI{0.0, 1.0};

}  // namespace ff
