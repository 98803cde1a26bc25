// Deterministic random number generation. Every stochastic component in the
// simulator draws from an Rng seeded explicitly by the experiment, so all
// results are reproducible bit-for-bit.
#pragma once

#include <cstdint>
#include <random>
#include <string_view>

#include "common/check.hpp"
#include "common/types.hpp"

namespace ff {

/// FNV-1a 64-bit string hash. Used wherever a seed is derived from a name
/// (floor plans, scheme labels): unlike std::hash, the value is pinned by
/// this implementation, so forked RNG streams — and therefore every figure —
/// are identical across standard libraries and platforms.
constexpr std::uint64_t fnv1a_64(std::string_view s) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

class Rng {
 public:
  explicit Rng(std::uint64_t seed = 1) : engine_(seed) {}

  /// Uniform in [0, 1).
  double uniform() { return uniform_(engine_); }

  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n). `n` must be positive: n == 0 would build a
  /// uniform_int_distribution with hi < lo, whose behavior is undefined.
  std::size_t index(std::size_t n) {
    FF_CHECK_MSG(n > 0, "Rng::index needs a non-empty range");
    return std::uniform_int_distribution<std::size_t>(0, n - 1)(engine_);
  }

  /// Standard normal.
  double gaussian() { return normal_(engine_); }

  /// Zero-mean circularly-symmetric complex Gaussian with E[|x|^2] = variance.
  Complex cgaussian(double variance = 1.0) {
    const double s = std::sqrt(variance / 2.0);
    return {s * gaussian(), s * gaussian()};
  }

  /// Float32 complex Gaussian: Marsaglia polar method entirely in float
  /// arithmetic, one 64-bit engine draw per trial (the top two 24-bit
  /// fields feed the two uniforms). A different draw sequence from
  /// cgaussian() with the same statistics. No stream element draws from it
  /// any more — ChannelElement adds noise with NoiseSampler
  /// (common/noise.hpp) at both precisions — but the repository benchmark's
  /// `common.rng.cgaussian32_ns` replay times it, and bench_micro_kernels
  /// keeps it as the float baseline the sampler is measured against.
  Complex32 cgaussian32(float variance = 1.0f) {
    float u, v, q;
    do {
      const std::uint64_t bits = engine_();
      u = static_cast<float>(bits >> 40) * 0x1p-23f - 1.0f;
      v = static_cast<float>((bits >> 16) & 0xFFFFFFu) * 0x1p-23f - 1.0f;
      q = u * u + v * v;
    } while (q >= 1.0f || q == 0.0f);
    const float m =
        std::sqrt(variance * 0.5f) * std::sqrt(-2.0f * std::log(q) / q);
    return {u * m, v * m};
  }

  /// Random phase point on the unit circle.
  Complex unit_phasor() {
    const double phi = uniform(0.0, 6.283185307179586);
    return {std::cos(phi), std::sin(phi)};
  }

  bool bernoulli(double p) { return uniform() < p; }

  /// Derive an independent child generator (stable given the same label).
  Rng fork(std::uint64_t label) {
    return Rng(engine_() ^ (label * 0x9E3779B97F4A7C15ULL));
  }

  std::mt19937_64& engine() { return engine_; }

 private:
  std::mt19937_64 engine_;
  std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  std::normal_distribution<double> normal_{0.0, 1.0};
};

}  // namespace ff
