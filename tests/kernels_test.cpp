// The kernel layer's three contracts (src/dsp/kernels/kernels.hpp):
//
//  1. Bitwise scalar/SIMD equality: the dispatched kernels (whatever ISA
//     resolved on this machine) produce byte-identical output to the scalar
//     reference, on aligned, unaligned and odd-tail spans.
//  2. Numerical accuracy of the mixed-radix Stockham FFT against the seed
//     radix-2 reference (a tight ulp-scale bound; the two associate
//     differently, so bitwise equality is not expected — this is the one
//     sanctioned checksum change, docs/PERFORMANCE.md).
//  3. Zero steady-state heap allocation in the streaming hot paths
//     (ForwardPipeline::process_into, CancellerElement::cancel_into),
//     asserted with a global operator-new hook.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <new>

#include "common/rng.hpp"
#include "dsp/fft.hpp"
#include "dsp/fir.hpp"
#include "dsp/kernels/kernels.hpp"
#include "dsp/kernels/workspace.hpp"
#include "relay/pipeline.hpp"
#include "stream/elements.hpp"

// ------------------------------------------------------- operator-new hook
// Every global allocation in this binary routes through alloc_count so the
// zero-allocation tests can assert "no heap traffic between these lines".
// All eight new variants and their deletes are replaced consistently
// (malloc/posix_memalign + free), which keeps the sanitizer builds honest.

namespace {
std::atomic<std::uint64_t> g_allocs{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  if (align > alignof(std::max_align_t)) {
    void* p = nullptr;
    if (posix_memalign(&p, align, n) != 0) return nullptr;
    return p;
  }
  return std::malloc(n);
}

std::uint64_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }
}  // namespace

void* operator new(std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) {
  if (void* p = counted_alloc(n, 0)) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n, std::align_val_t al) {
  if (void* p = counted_alloc(n, static_cast<std::size_t>(al))) return p;
  throw std::bad_alloc{};
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_alloc(n, static_cast<std::size_t>(al));
}

namespace {
// Every delete releases through one out-of-line function, so the compiler
// never sees a new/free pairing it would flag as mismatched.
[[gnu::noinline]] void counted_free(void* p) noexcept { std::free(p); }
}  // namespace

void operator delete(void* p) noexcept { counted_free(p); }
void operator delete[](void* p) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { counted_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { counted_free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  counted_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { counted_free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  counted_free(p);
}

namespace ff {
namespace {

namespace k = dsp::kernels;

// Sizes chosen to exercise every SIMD code path: below one vector, exactly
// one/two vectors, odd tails after the 2- and 4-wide loops, and large.
const std::size_t kSizes[] = {1, 2, 3, 4, 5, 7, 8, 15, 16, 17, 31, 64, 129, 1000};

k::AlignedCVec random_vec(Rng& rng, std::size_t n) {
  k::AlignedCVec v(n);
  for (auto& x : v) x = rng.cgaussian();
  return v;
}

bool bitwise_equal(CSpan a, CSpan b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex)) == 0;
}

// Run `check` over aligned views and deliberately misaligned (data()+1)
// views of freshly drawn inputs, for every size in kSizes.
template <typename Fn>
void for_each_shape(Fn&& check) {
  Rng rng(20140817);
  for (const std::size_t n : kSizes) {
    k::AlignedCVec a = random_vec(rng, n + 1);
    k::AlignedCVec b = random_vec(rng, n + 1);
    check(CSpan{a.data(), n}, CSpan{b.data(), n}, n);            // aligned
    check(CSpan{a.data() + 1, n}, CSpan{b.data() + 1, n}, n);    // unaligned
  }
}

TEST(KernelsBitwise, CmulMatchesScalar) {
  for_each_shape([](CSpan a, CSpan b, std::size_t n) {
    k::AlignedCVec got(n), want(n);
    k::cmul(a, b, got);
    k::scalar::cmul(a, b, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwise, CmacMatchesScalar) {
  for_each_shape([](CSpan a, CSpan b, std::size_t n) {
    Rng rng(n);
    k::AlignedCVec got = random_vec(rng, n);
    k::AlignedCVec want = got;
    k::cmac(a, b, got);
    k::scalar::cmac(a, b, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwise, AxpyMatchesScalar) {
  const Complex alpha{0.7, -1.3};
  for_each_shape([&](CSpan a, CSpan, std::size_t n) {
    Rng rng(n);
    k::AlignedCVec got = random_vec(rng, n);
    k::AlignedCVec want = got;
    k::axpy(alpha, a, got);
    k::scalar::axpy(alpha, a, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwise, ScaleMatchesScalar) {
  const Complex alpha{-0.2, 2.5};
  for_each_shape([&](CSpan a, CSpan, std::size_t n) {
    k::AlignedCVec got(n), want(n);
    k::scale(alpha, a, got);
    k::scalar::scale(alpha, a, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwise, ScaleRealMatchesScalar) {
  for_each_shape([](CSpan a, CSpan, std::size_t n) {
    k::AlignedCVec got(n), want(n);
    k::scale_real(1.0 / 64.0, a, got);
    k::scalar::scale_real(1.0 / 64.0, a, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwise, RotatePhasorMatchesScalar) {
  for_each_shape([](CSpan a, CSpan b, std::size_t n) {
    k::AlignedCVec got(n), want(n);
    k::rotate_phasor(a, b, got);
    k::scalar::rotate_phasor(a, b, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwise, CdotConjMatchesScalar) {
  for_each_shape([](CSpan a, CSpan b, std::size_t n) {
    const Complex got = k::cdot_conj(a, b);
    const Complex want = k::scalar::cdot_conj(a, b);
    EXPECT_TRUE(std::memcmp(&got, &want, sizeof(Complex)) == 0) << "n=" << n;
  });
}

TEST(KernelsBitwise, MagsqAccumMatchesScalar) {
  for_each_shape([](CSpan a, CSpan, std::size_t n) {
    const double got = k::magsq_accum(a);
    const double want = k::scalar::magsq_accum(a);
    EXPECT_TRUE(std::memcmp(&got, &want, sizeof(double)) == 0) << "n=" << n;
  });
}

TEST(KernelsBitwise, SplitInterleaveMatchesScalarAndRoundTrips) {
  for_each_shape([](CSpan a, CSpan, std::size_t n) {
    std::vector<double> re(n), im(n), re2(n), im2(n);
    k::split(a, re, im);
    k::scalar::split(a, re2, im2);
    EXPECT_EQ(std::memcmp(re.data(), re2.data(), n * sizeof(double)), 0) << "n=" << n;
    EXPECT_EQ(std::memcmp(im.data(), im2.data(), n * sizeof(double)), 0) << "n=" << n;
    k::AlignedCVec got(n), want(n);
    k::interleave(re, im, got);
    k::scalar::interleave(re, im, want);
    EXPECT_TRUE(bitwise_equal(got, want)) << "n=" << n;
    EXPECT_TRUE(bitwise_equal(got, a)) << "n=" << n;  // round trip
  });
}

// --------------------------------------------- float32 family, same contract
// The f32 kernels carry the identical bitwise scalar/SIMD promise: whatever
// ISA dispatch resolved must memcmp-match the scalar float reference on
// aligned, unaligned and odd-tail spans. (f32 and f64 are separate checksum
// families — nothing here compares f32 against f64; accuracy of the family
// as a whole is covered by the FftMixedRadixF32 and stream tests.)

k::AlignedCVec32 random_vec32(Rng& rng, std::size_t n) {
  k::AlignedCVec32 v(n);
  for (auto& x : v) {
    const Complex d = rng.cgaussian();
    x = {static_cast<float>(d.real()), static_cast<float>(d.imag())};
  }
  return v;
}

bool bitwise_equal32(CSpan32 a, CSpan32 b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(Complex32)) == 0;
}

template <typename Fn>
void for_each_shape32(Fn&& check) {
  Rng rng(20140818);
  for (const std::size_t n : kSizes) {
    k::AlignedCVec32 a = random_vec32(rng, n + 1);
    k::AlignedCVec32 b = random_vec32(rng, n + 1);
    check(CSpan32{a.data(), n}, CSpan32{b.data(), n}, n);          // aligned
    check(CSpan32{a.data() + 1, n}, CSpan32{b.data() + 1, n}, n);  // unaligned
  }
}

TEST(KernelsBitwiseF32, CmulMatchesScalar) {
  for_each_shape32([](CSpan32 a, CSpan32 b, std::size_t n) {
    k::AlignedCVec32 got(n), want(n);
    k::cmul(a, b, got);
    k::scalar::cmul(a, b, want);
    EXPECT_TRUE(bitwise_equal32(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, CmacMatchesScalar) {
  for_each_shape32([](CSpan32 a, CSpan32 b, std::size_t n) {
    Rng rng(n);
    k::AlignedCVec32 got = random_vec32(rng, n);
    k::AlignedCVec32 want = got;
    k::cmac(a, b, got);
    k::scalar::cmac(a, b, want);
    EXPECT_TRUE(bitwise_equal32(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, AxpyMatchesScalar) {
  const Complex32 alpha{0.7f, -1.3f};
  for_each_shape32([&](CSpan32 a, CSpan32, std::size_t n) {
    Rng rng(n);
    k::AlignedCVec32 got = random_vec32(rng, n);
    k::AlignedCVec32 want = got;
    k::axpy(alpha, a, got);
    k::scalar::axpy(alpha, a, want);
    EXPECT_TRUE(bitwise_equal32(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, ScaleMatchesScalar) {
  const Complex32 alpha{-0.2f, 2.5f};
  for_each_shape32([&](CSpan32 a, CSpan32, std::size_t n) {
    k::AlignedCVec32 got(n), want(n);
    k::scale(alpha, a, got);
    k::scalar::scale(alpha, a, want);
    EXPECT_TRUE(bitwise_equal32(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, ScaleRealMatchesScalar) {
  for_each_shape32([](CSpan32 a, CSpan32, std::size_t n) {
    k::AlignedCVec32 got(n), want(n);
    k::scale_real(1.0f / 64.0f, a, got);
    k::scalar::scale_real(1.0f / 64.0f, a, want);
    EXPECT_TRUE(bitwise_equal32(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, RotatePhasorMatchesScalar) {
  for_each_shape32([](CSpan32 a, CSpan32 b, std::size_t n) {
    k::AlignedCVec32 got(n), want(n);
    k::rotate_phasor(a, b, got);
    k::scalar::rotate_phasor(a, b, want);
    EXPECT_TRUE(bitwise_equal32(got, want)) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, CdotConjMatchesScalar) {
  for_each_shape32([](CSpan32 a, CSpan32 b, std::size_t n) {
    const Complex32 got = k::cdot_conj(a, b);
    const Complex32 want = k::scalar::cdot_conj(a, b);
    EXPECT_TRUE(std::memcmp(&got, &want, sizeof(Complex32)) == 0) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, MagsqAccumMatchesScalar) {
  for_each_shape32([](CSpan32 a, CSpan32, std::size_t n) {
    const float got = k::magsq_accum(a);
    const float want = k::scalar::magsq_accum(a);
    EXPECT_TRUE(std::memcmp(&got, &want, sizeof(float)) == 0) << "n=" << n;
  });
}

TEST(KernelsBitwiseF32, SplitInterleaveMatchesScalarAndRoundTrips) {
  for_each_shape32([](CSpan32 a, CSpan32, std::size_t n) {
    std::vector<float> re(n), im(n), re2(n), im2(n);
    k::split(a, re, im);
    k::scalar::split(a, re2, im2);
    EXPECT_EQ(std::memcmp(re.data(), re2.data(), n * sizeof(float)), 0) << "n=" << n;
    EXPECT_EQ(std::memcmp(im.data(), im2.data(), n * sizeof(float)), 0) << "n=" << n;
    k::AlignedCVec32 got(n), want(n);
    k::interleave(re, im, got);
    k::scalar::interleave(re, im, want);
    EXPECT_TRUE(bitwise_equal32(got, want)) << "n=" << n;
    EXPECT_TRUE(bitwise_equal32(got, a)) << "n=" << n;  // round trip
  });
}

// Convert-at-the-edges exactness: widen is exact (every float is a double),
// and narrow of a widened f32 vector restores the original bit pattern. This
// is what lets the f32 stream path convert once on entry and once on exit
// without perturbing values the pipeline never touched.
TEST(KernelsF32, WidenNarrowRoundTripIsExact) {
  Rng rng(42);
  for (const std::size_t n : kSizes) {
    k::AlignedCVec32 x = random_vec32(rng, n);
    k::AlignedCVec wide(n);
    k::widen(CSpan32{x.data(), n}, wide);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(wide[i].real(), static_cast<double>(x[i].real()));
      EXPECT_EQ(wide[i].imag(), static_cast<double>(x[i].imag()));
    }
    k::AlignedCVec32 back(n);
    k::narrow(wide, back);
    EXPECT_TRUE(bitwise_equal32(back, CSpan32{x.data(), n})) << "n=" << n;
    // The allocating conveniences agree with the span forms.
    const CVec wide2 = k::widened(CSpan32{x.data(), n});
    EXPECT_TRUE(bitwise_equal(wide, wide2)) << "n=" << n;
    const CVec32 back2 = k::narrowed(wide);
    EXPECT_TRUE(bitwise_equal32(back, back2)) << "n=" << n;
  }
}

TEST(Kernels, IsaReportingIsConsistent) {
  const k::Isa isa = k::active_isa();
  EXPECT_STREQ(k::isa_name(), k::isa_name(isa));
  if (!k::simd_compiled()) {
    EXPECT_EQ(isa, k::Isa::kScalar);
  }
  // The name is one of the documented tokens bench JSON carries.
  const std::string name = k::isa_name();
  EXPECT_TRUE(name == "scalar" || name == "sse2" || name == "avx2") << name;
}

// -------------------------------------------------- mixed-radix FFT accuracy

TEST(FftMixedRadix, MatchesRadix2WithinUlpBound) {
  Rng rng(7);
  for (std::size_t n = 8; n <= 4096; n *= 2) {
    const dsp::FftPlan plan(n);
    CVec a(n);
    for (auto& v : a) v = rng.cgaussian();
    CVec b = a;
    plan.forward(a);         // Stockham mixed-radix (radix-4 dominant)
    plan.forward_radix2(b);  // the seed's iterative radix-2 reference
    // The two associate butterflies differently, so allow an error on the
    // ulp scale of the output magnitude: eps * ||X||_inf * log2(n) stages,
    // with a x16 cushion. Empirically the observed error is ~10x smaller.
    double scale = 0.0;
    for (const Complex& v : b)
      scale = std::max({scale, std::abs(v.real()), std::abs(v.imag())});
    const double stages = std::log2(static_cast<double>(n));
    const double tol =
        16.0 * std::numeric_limits<double>::epsilon() * scale * stages;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(a[i].real(), b[i].real(), tol) << "n=" << n << " i=" << i;
      EXPECT_NEAR(a[i].imag(), b[i].imag(), tol) << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftMixedRadix, InverseRoundTrip) {
  Rng rng(8);
  for (std::size_t n = 8; n <= 1024; n *= 4) {
    const dsp::FftPlan plan(n);
    CVec x(n);
    for (auto& v : x) v = rng.cgaussian();
    CVec y = x;
    plan.forward(y);
    plan.inverse(y);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i].real(), x[i].real(), 1e-12) << "n=" << n;
      EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-12) << "n=" << n;
    }
  }
}

TEST(FftMixedRadix, ExecuteManyMatchesSingleTransforms) {
  Rng rng(9);
  const std::size_t n = 64, count = 5;
  const dsp::FftPlan plan(n);
  k::AlignedCVec in(n * count), out(n * count);
  for (auto& v : in) v = rng.cgaussian();
  plan.execute_many(in, out, count);
  for (std::size_t c = 0; c < count; ++c) {
    CVec one(in.begin() + static_cast<std::ptrdiff_t>(c * n),
             in.begin() + static_cast<std::ptrdiff_t>((c + 1) * n));
    plan.forward(one);
    EXPECT_TRUE(bitwise_equal(CSpan{out.data() + c * n, n}, one)) << "block " << c;
  }
}

// ------------------------------------------------------- float32 FFT accuracy
// FftPlan<float> has no radix-2 reference; its accuracy reference is the
// f64 plan. The bound is the float analogue of the mixed-radix one: eps_f32
// scales it up by ~2^29, which still pins the plan to "rounding noise only".

TEST(FftMixedRadixF32, MatchesFloat64PlanWithinUlpBound) {
  Rng rng(12);
  for (std::size_t n = 8; n <= 4096; n *= 2) {
    const dsp::FftPlan<float> plan32(n);
    const dsp::FftPlan plan64(n);
    k::AlignedCVec ref(n);
    for (auto& v : ref) v = rng.cgaussian();
    k::AlignedCVec32 x(n);
    k::narrow(ref, x);  // the f32 input is the rounded f64 input
    k::widen(x, ref);   // ...and the f64 reference runs on those exact values
    plan32.forward(x);
    plan64.forward(ref);
    double scale = 0.0;
    for (const Complex& v : ref)
      scale = std::max({scale, std::abs(v.real()), std::abs(v.imag())});
    const double stages = std::log2(static_cast<double>(n));
    const double tol =
        16.0 * static_cast<double>(std::numeric_limits<float>::epsilon()) * scale * stages;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(static_cast<double>(x[i].real()), ref[i].real(), tol)
          << "n=" << n << " i=" << i;
      EXPECT_NEAR(static_cast<double>(x[i].imag()), ref[i].imag(), tol)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(FftMixedRadixF32, InverseRoundTrip) {
  Rng rng(13);
  for (std::size_t n = 8; n <= 1024; n *= 4) {
    const dsp::FftPlan<float> plan(n);
    k::AlignedCVec32 x(n);
    {
      Rng draw(n);
      for (auto& v : x) {
        const Complex d = draw.cgaussian();
        v = {static_cast<float>(d.real()), static_cast<float>(d.imag())};
      }
    }
    k::AlignedCVec32 y = x;
    plan.forward(y);
    plan.inverse(y);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(y[i].real(), x[i].real(), 1e-4f) << "n=" << n;
      EXPECT_NEAR(y[i].imag(), x[i].imag(), 1e-4f) << "n=" << n;
    }
  }
}

TEST(FftMixedRadixF32, ExecuteManyMatchesSingleTransforms) {
  Rng rng(14);
  const std::size_t n = 64, count = 5;
  const dsp::FftPlan<float> plan(n);
  k::AlignedCVec32 in = random_vec32(rng, n * count);
  k::AlignedCVec32 out(n * count);
  plan.execute_many(in, out, count);
  for (std::size_t c = 0; c < count; ++c) {
    k::AlignedCVec32 one(in.begin() + static_cast<std::ptrdiff_t>(c * n),
                         in.begin() + static_cast<std::ptrdiff_t>((c + 1) * n));
    plan.forward(one);
    EXPECT_TRUE(bitwise_equal32(CSpan32{out.data() + c * n, n}, one)) << "block " << c;
  }
}

// ------------------------------------------------------------ golden hashes
// FNV-1a over the raw output bytes of paths no session checksum covers. The
// constants were recorded before the precision-generic refactor of the DSP
// core and must never move: they hold under every ISA (FF_KERNEL_ISA) and
// with FF_SIMD=OFF, by the scalar/SIMD bitwise contract.

constexpr std::uint64_t kFnvOffset = 0xCBF29CE484222325ULL;

std::uint64_t fnv1a(const void* bytes, std::size_t len, std::uint64_t h = kFnvOffset) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= 0x100000001B3ULL;
  }
  return h;
}

template <typename V>
std::uint64_t fnv1a(const V& v, std::uint64_t h) {
  return fnv1a(v.data(), v.size() * sizeof(v[0]), h);
}

struct FftHashes {
  std::uint64_t forward = kFnvOffset;
  std::uint64_t inverse = kFnvOffset;
  std::uint64_t many = kFnvOffset;
};

// forward, inverse and execute_many (out-of-place forward, in-place
// inverse, three blocks) on seeded inputs for every n = 2..4096.
template <typename T, typename Draw>
FftHashes fft_hashes(Draw&& draw) {
  using Vec = k::AlignedVec<T>;
  FftHashes h;
  for (std::size_t n = 2; n <= 4096; n *= 2) {
    Rng rng(1000 + n);
    const dsp::FftPlan<T> plan(n);
    const Vec x = draw(rng, n);
    Vec y = x;
    plan.forward(y);
    h.forward = fnv1a(y, h.forward);
    y = x;
    plan.inverse(y);
    h.inverse = fnv1a(y, h.inverse);
    const Vec in = draw(rng, 3 * n);
    Vec out(3 * n);
    plan.execute_many(in, out, 3);
    h.many = fnv1a(out, h.many);
    plan.execute_many(out, out, 3, /*invert=*/true);
    h.many = fnv1a(out, h.many);
  }
  return h;
}

TEST(FftGolden, Float64OutputBitsArePinned) {
  const FftHashes h = fft_hashes<double>(random_vec);
  EXPECT_EQ(h.forward, 0x60677A1A8F079EA1ULL);
  EXPECT_EQ(h.inverse, 0x013F2B9D4A628753ULL);
  EXPECT_EQ(h.many, 0xC1DAA2FCEBFAD8E7ULL);
}

TEST(FftGolden, Float32OutputBitsArePinned) {
  const FftHashes h = fft_hashes<float>(random_vec32);
  EXPECT_EQ(h.forward, 0x96ECBD39F2C48A52ULL);
  EXPECT_EQ(h.inverse, 0xB9E17DB55CF44CB8ULL);
  EXPECT_EQ(h.many, 0xFF552FE696A04217ULL);
}

// CancellerElement::cancel_into over uneven blocks, then a mid-stream
// configure() that resizes the analog stage (history carries over), then
// more blocks. No benchmark session runs the canceller, so this is the pin.
std::uint64_t canceller_hash(const char* precision) {
  Rng rng(41);
  CVec analog(24), digital(120), analog2(16);
  for (auto& t : analog) t = rng.cgaussian(1e-2);
  for (auto& t : digital) t = rng.cgaussian(1e-4);
  for (auto& t : analog2) t = rng.cgaussian(1e-2);
  stream::CancellerElement canc("c", analog, digital);
  const auto configure = [&](const CVec& analog_taps) {
    stream::Params p;
    p.set("analog", stream::format_cvec(analog_taps));
    p.set("digital", stream::format_cvec(digital));
    p.set("precision", precision);
    canc.configure(p);
  };
  configure(analog);
  std::uint64_t h = kFnvOffset;
  const auto run = [&](std::size_t n) {
    CVec rx(n), tx(n);
    for (auto& v : rx) v = rng.cgaussian();
    for (auto& v : tx) v = rng.cgaussian();
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
    h = fnv1a(rx, h);
  };
  for (const std::size_t n : {1, 7, 64, 256, 513}) run(n);
  configure(analog2);
  for (const std::size_t n : {3, 256, 100}) run(n);
  return h;
}

TEST(CancellerGolden, Float64OutputBitsArePinned) {
  EXPECT_EQ(canceller_hash("f64"), 0x3B1DC11FF778C0D0ULL);
}

TEST(CancellerGolden, Float32OutputBitsArePinned) {
  EXPECT_EQ(canceller_hash("f32"), 0x48061527DAD854DAULL);
}

// ----------------------------------------------------- zero-allocation hold

TEST(ZeroAllocation, HookIsLive) {
  const std::uint64_t before = alloc_count();
  CVec v(256);
  EXPECT_NE(v.data(), nullptr);
  EXPECT_GT(alloc_count(), before);
}

// Both forward-path shapes: the composite FIR alone (restore_cfo) and the
// FIR plus its output rotator (restore_cfo=false).
TEST(ZeroAllocation, ForwardPipelineSteadyState) {
  for (const bool restore_cfo : {true, false}) {
    relay::PipelineConfig cfg;
    cfg.cfo_hz = 30e3;
    cfg.restore_cfo = restore_cfo;
    cfg.prefilter = CVec(12, Complex{0.25, 0.05});
    cfg.tx_filter = dsp::design_lowpass(9, 0.25);
    cfg.adc_dac_delay_samples = 4;
    cfg.gain_db = 40.0;
    relay::ForwardPipeline pipe(cfg);
    Rng rng(10);
    CVec x(512), out(512);
    for (auto& v : x) v = rng.cgaussian();
    // Warmup grows the pipeline's Workspace to this block size.
    for (int i = 0; i < 3; ++i) pipe.process_into(x, out);
    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 32; ++i) pipe.process_into(x, out);
    EXPECT_EQ(alloc_count(), before)
        << "ForwardPipeline::process_into allocated in steady state, restore_cfo="
        << restore_cfo;
  }
}

TEST(ZeroAllocation, CancellerElementSteadyState) {
  Rng rng(11);
  CVec analog(24), digital(120);
  for (auto& t : analog) t = rng.cgaussian(1e-4);
  for (auto& t : digital) t = rng.cgaussian(1e-6);
  stream::CancellerElement canc("c", analog, digital);
  CVec rx(512), tx(512);
  for (auto& v : rx) v = rng.cgaussian();
  for (auto& v : tx) v = rng.cgaussian();
  for (int i = 0; i < 3; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 32; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  EXPECT_EQ(alloc_count(), before)
      << "CancellerElement::cancel_into allocated in steady state";
}

// The f32 path has its own Workspace slots and FIR scratch; prove the fast
// path is as allocation-free in steady state as the reference path.
TEST(ZeroAllocation, ForwardPipelineF32SteadyState) {
  for (const bool restore_cfo : {true, false}) {
    relay::PipelineConfig cfg;
    cfg.cfo_hz = 30e3;
    cfg.restore_cfo = restore_cfo;
    cfg.prefilter = CVec(12, Complex{0.25, 0.05});
    cfg.tx_filter = dsp::design_lowpass(9, 0.25);
    cfg.adc_dac_delay_samples = 4;
    cfg.gain_db = 40.0;
    cfg.precision = Precision::kF32;
    relay::ForwardPipeline pipe(cfg);
    Rng rng(15);
    CVec x(512), out(512);
    for (auto& v : x) v = rng.cgaussian();
    for (int i = 0; i < 3; ++i) pipe.process_into(x, out);
    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 32; ++i) pipe.process_into(x, out);
    EXPECT_EQ(alloc_count(), before)
        << "ForwardPipeline f32 process_into allocated in steady state, restore_cfo="
        << restore_cfo;
  }
}

TEST(ZeroAllocation, CancellerElementF32SteadyState) {
  Rng rng(16);
  CVec analog(24), digital(120);
  for (auto& t : analog) t = rng.cgaussian(1e-4);
  for (auto& t : digital) t = rng.cgaussian(1e-6);
  stream::CancellerElement canc("c", analog, digital);
  stream::Params p;
  p.set("analog", stream::format_cvec(analog));
  p.set("digital", stream::format_cvec(digital));
  p.set("precision", "f32");
  canc.configure(p);
  CVec rx(512), tx(512);
  for (auto& v : rx) v = rng.cgaussian();
  for (auto& v : tx) v = rng.cgaussian();
  for (int i = 0; i < 3; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  const std::uint64_t before = alloc_count();
  for (int i = 0; i < 32; ++i)
    canc.cancel_into(CMutSpan{rx.data(), rx.size()}, CSpan{tx.data(), tx.size()});
  EXPECT_EQ(alloc_count(), before)
      << "CancellerElement f32 cancel_into allocated in steady state";
}

/// ChannelElement with its block entry point public, so the test drives it
/// without a graph (whose block moves allocate by design).
struct ChannelProbe : stream::ChannelElement {
  using stream::ChannelElement::ChannelElement;
  using stream::ChannelElement::process;
};

// The noisy channel — FIR, AWGN draws and the f32 narrow/widen — in both
// precisions.
TEST(ZeroAllocation, NoisyChannelElementSteadyState) {
  for (const Precision precision : {Precision::kF64, Precision::kF32}) {
    stream::ChannelElementConfig cfg;
    cfg.channel = channel::MultipathChannel(
        {channel::PathTap{100e-9, Complex{0.5, 0.1}},
         channel::PathTap{250e-9, Complex{-0.2, 0.3}}},
        2.45e9);
    cfg.sample_rate_hz = 80e6;
    cfg.noise_power = 1e-9;
    cfg.precision = precision;
    ChannelProbe chan("chan", cfg);
    Rng rng(17);
    stream::Block block;
    block.samples.resize(512);
    for (auto& v : block.samples) v = rng.cgaussian();
    for (int i = 0; i < 3; ++i) chan.process(block);
    const std::uint64_t before = alloc_count();
    for (int i = 0; i < 32; ++i) chan.process(block);
    EXPECT_EQ(alloc_count(), before)
        << "ChannelElement with noise allocated in steady state, precision="
        << to_string(precision);
  }
}

TEST(Workspace, GrowsAreCountedAndStopInSteadyState) {
  k::Workspace ws;
  EXPECT_EQ(ws.grows(), 0u);
  (void)ws.get(0, 100);
  const std::uint64_t after_first = ws.grows();
  EXPECT_GT(after_first, 0u);
  (void)ws.get(0, 50);   // smaller: reuse
  (void)ws.get(0, 100);  // equal: reuse
  EXPECT_EQ(ws.grows(), after_first);
  (void)ws.get(0, 200);  // larger: must grow
  EXPECT_GT(ws.grows(), after_first);
  EXPECT_GT(ws.bytes(), 0u);
  ws.release();
  EXPECT_EQ(ws.bytes(), 0u);
}

TEST(Workspace, F32SlotsAreASeparateNamespace) {
  k::Workspace ws;
  (void)ws.get(0, 100);  // f64 slot 0
  EXPECT_EQ(ws.grows<float>(), 0u) << "f64 gets must not touch the f32 counters";
  (void)ws.get<float>(0, 100);
  const std::uint64_t after_first = ws.grows<float>();
  EXPECT_GT(after_first, 0u);
  EXPECT_GT(ws.bytes<float>(), 0u);
  (void)ws.get<float>(0, 64);   // smaller: reuse
  (void)ws.get<float>(0, 100);  // equal: reuse
  EXPECT_EQ(ws.grows<float>(), after_first);
  (void)ws.get<float>(0, 200);  // larger: must grow
  EXPECT_GT(ws.grows<float>(), after_first);
  ws.release();
  EXPECT_EQ(ws.bytes<float>(), 0u);
}

}  // namespace
}  // namespace ff
