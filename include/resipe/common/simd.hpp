// Portable fixed-width SIMD value types for the hot kernels.
//
// One header, four backends: AVX-512F, AVX2+FMA, NEON and a scalar
// fallback, selected at compile time from the architecture macros the
// active -march flags imply (see the RESIPE_SIMD CMake option).  Each
// kernel is one body, templated on its vector type and instantiated at
// `vdouble` — the widest double vector the build supports — and at
// `vscalar` = simd<double, 1>, the scalar reference (at_width() picks
// the instance).  A build with no vector ISA has vdouble == vscalar.
//
// Semantics the kernels rely on:
//
//  * Lane arithmetic (+, -, *, /, min, max, select, compares) is
//    IEEE-754 per lane: a lane computes bit-exactly what the same
//    scalar expression computes.  The kernels use no horizontal
//    operation and no fused multiply-add, so each lane of a vdouble
//    instance computes what the vscalar instance computes for that
//    element, except for the one source of divergence below.
//  * exp()/log() are Cephes-style polynomial evaluations (the same
//    approach Arbor's simd layer uses): relative error is within
//    kTranscendentalUlp ulp of the correctly-rounded result (asserted
//    by tests/test_simd.cpp).  The generic backend — vscalar included
//    — and NEON call libm per lane instead, which is strictly tighter,
//    so the bound holds for every backend.  The `simd_equivalence`
//    oracle contract (src/verify/contracts.cpp) budgets this bound
//    when it compares the vdouble instances against the vscalar ones.
//
// Runtime control: `RESIPE_SIMD=scalar` in the environment (or
// set_force_scalar(true)) makes the kernels run their vscalar instance
// even in a vector build; active_isa() reports what is actually in
// use.  Forcing is process-global and not thread-safe against
// concurrent kernel calls — flip it at setup time, like
// telemetry::set_enabled.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <new>

#if defined(RESIPE_SIMD_FORCE_SCALAR)
// Explicit scalar build: never touch vector intrinsics.
#elif defined(__AVX512F__)
#define RESIPE_SIMD_AVX512 1
#include <immintrin.h>
#elif defined(__AVX2__) && defined(__FMA__)
#define RESIPE_SIMD_AVX2 1
#include <immintrin.h>
#elif defined(__ARM_NEON)
#define RESIPE_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace resipe::simd {

/// Upper bound, in ulp, on the relative error of the polynomial exp()
/// and log() below versus a correctly-rounded libm.  test_simd.cpp
/// measures the real figure (typically <= 2 ulp) against this bound;
/// the verify harness budgets it when deriving SIMD-vs-scalar error
/// bounds.
inline constexpr double kTranscendentalUlp = 8.0;

/// Cache-line-sized alignment for kernel data; every backend's aligned
/// loads are satisfied by it.
inline constexpr std::size_t kAlignment = 64;

// --- generic fixed-width vector (any T, any N) -------------------------
//
// The portable reference implementation: an array of lanes.  The
// native specializations below override it for the build's widest
// double vector; everything else (vscalar, odd widths, scalar builds,
// unit tests of the abstraction itself) uses this.  gcc/clang usually
// vectorize these loops when the ISA allows, but no kernel correctness
// depends on that.

/// Lane mask for the generic backend: lane[i] != 0 means "selected".
/// A standalone template (rather than a nested type) so the free
/// functions over masks can deduce T and N.
template <typename T, std::size_t N>
struct basic_mask {
  bool lane[N];
};

template <typename T, std::size_t N>
inline basic_mask<T, N> operator&(basic_mask<T, N> a, basic_mask<T, N> b) {
  for (std::size_t i = 0; i < N; ++i) a.lane[i] = a.lane[i] && b.lane[i];
  return a;
}

template <typename T, std::size_t N>
struct simd {
  static_assert(N >= 1, "simd width must be at least 1");
  T lane[N];

  simd() = default;
  explicit simd(T broadcast) {
    for (std::size_t i = 0; i < N; ++i) lane[i] = broadcast;
  }

  static simd load(const T* p) {  // p aligned to kAlignment
    simd v;
    for (std::size_t i = 0; i < N; ++i) v.lane[i] = p[i];
    return v;
  }
  static simd loadu(const T* p) { return load(p); }
  void store(T* p) const {
    for (std::size_t i = 0; i < N; ++i) p[i] = lane[i];
  }
  void storeu(T* p) const { store(p); }

  friend simd operator+(simd a, simd b) {
    for (std::size_t i = 0; i < N; ++i) a.lane[i] += b.lane[i];
    return a;
  }
  friend simd operator-(simd a, simd b) {
    for (std::size_t i = 0; i < N; ++i) a.lane[i] -= b.lane[i];
    return a;
  }
  friend simd operator*(simd a, simd b) {
    for (std::size_t i = 0; i < N; ++i) a.lane[i] *= b.lane[i];
    return a;
  }
  friend simd operator/(simd a, simd b) {
    for (std::size_t i = 0; i < N; ++i) a.lane[i] /= b.lane[i];
    return a;
  }

  using mask = basic_mask<T, N>;

  friend mask operator>=(simd a, simd b) {
    mask m;
    for (std::size_t i = 0; i < N; ++i) m.lane[i] = a.lane[i] >= b.lane[i];
    return m;
  }
  friend mask operator<=(simd a, simd b) {
    mask m;
    for (std::size_t i = 0; i < N; ++i) m.lane[i] = a.lane[i] <= b.lane[i];
    return m;
  }
  friend mask operator>(simd a, simd b) {
    mask m;
    for (std::size_t i = 0; i < N; ++i) m.lane[i] = a.lane[i] > b.lane[i];
    return m;
  }
  friend mask operator<(simd a, simd b) {
    mask m;
    for (std::size_t i = 0; i < N; ++i) m.lane[i] = a.lane[i] < b.lane[i];
    return m;
  }
};

template <typename T, std::size_t N>
inline simd<T, N> min(simd<T, N> a, simd<T, N> b) {
  for (std::size_t i = 0; i < N; ++i) {
    if (b.lane[i] < a.lane[i]) a.lane[i] = b.lane[i];
  }
  return a;
}

template <typename T, std::size_t N>
inline simd<T, N> max(simd<T, N> a, simd<T, N> b) {
  for (std::size_t i = 0; i < N; ++i) {
    if (a.lane[i] < b.lane[i]) a.lane[i] = b.lane[i];
  }
  return a;
}

/// Per-lane: m ? a : b.
template <typename T, std::size_t N>
inline simd<T, N> select(basic_mask<T, N> m, simd<T, N> a, simd<T, N> b) {
  for (std::size_t i = 0; i < N; ++i) {
    if (!m.lane[i]) a.lane[i] = b.lane[i];
  }
  return a;
}

template <typename T, std::size_t N>
inline std::size_t mask_count(const basic_mask<T, N>& m) {
  std::size_t n = 0;
  for (std::size_t i = 0; i < N; ++i) n += m.lane[i] ? 1 : 0;
  return n;
}

/// Per-lane rounding to nearest with halves away from zero, bit-equal
/// to std::round on every backend — including -0.0 (preserved), the
/// infinities and NaN (propagated).  Exactness matters: the codec's
/// clock-snap quantization goes through this, and snapped spike times
/// feed the bit-identity contracts.
template <typename T, std::size_t N>
inline simd<T, N> round(simd<T, N> v) {
  for (std::size_t i = 0; i < N; ++i) v.lane[i] = std::round(v.lane[i]);
  return v;
}

/// Lane-serial libm transcendentals for the generic backend: bit-equal
/// to the scalar expressions, trivially inside kTranscendentalUlp.
template <typename T, std::size_t N>
inline simd<T, N> exp(simd<T, N> v) {
  for (std::size_t i = 0; i < N; ++i) v.lane[i] = std::exp(v.lane[i]);
  return v;
}

template <typename T, std::size_t N>
inline simd<T, N> log(simd<T, N> v) {
  for (std::size_t i = 0; i < N; ++i) v.lane[i] = std::log(v.lane[i]);
  return v;
}

namespace detail {

// Cephes polynomial coefficients (public-domain constants, the same
// ones Arbor's simd math uses).  exp: a Pade form on r = x - n ln2;
// log: a rational form on the frexp mantissa.
inline constexpr double kLog2E = 1.4426950408889634073599;
inline constexpr double kLn2Hi = 6.93145751953125e-1;
inline constexpr double kLn2Lo = 1.42860682030941723212e-6;
inline constexpr double kExpMaxArg = 709.782712893383996843;
inline constexpr double kExpMinArg = -708.396418532264106224;

inline constexpr double kExpP0 = 1.26177193074810590878e-4;
inline constexpr double kExpP1 = 3.02994407707441961300e-2;
inline constexpr double kExpP2 = 9.99999999999999999910e-1;
inline constexpr double kExpQ0 = 3.00198505138664455042e-6;
inline constexpr double kExpQ1 = 2.52448340349684104192e-3;
inline constexpr double kExpQ2 = 2.27265548208155028766e-1;
inline constexpr double kExpQ3 = 2.00000000000000000005e0;

inline constexpr double kSqrtHalf = 0.70710678118654752440;
inline constexpr double kLogP0 = 1.01875663804580931796e-4;
inline constexpr double kLogP1 = 4.97494994976747001425e-1;
inline constexpr double kLogP2 = 4.70579119878881725854e0;
inline constexpr double kLogP3 = 1.44989225341610930846e1;
inline constexpr double kLogP4 = 1.79368678507819816313e1;
inline constexpr double kLogP5 = 7.70838733755885391666e0;
inline constexpr double kLogQ0 = 1.12873587189167450590e1;
inline constexpr double kLogQ1 = 4.52279145837532221105e1;
inline constexpr double kLogQ2 = 8.29875266912776603211e1;
inline constexpr double kLogQ3 = 7.11544750618563894466e1;
inline constexpr double kLogQ4 = 2.31251620126765340583e1;
// ln2 split for the exponent term of log (cephes LOGE2 split).
inline constexpr double kLogC1 = -2.121944400546905827679e-4;
inline constexpr double kLogC2 = 0.693359375;

}  // namespace detail

// --- AVX-512F backend --------------------------------------------------

#if defined(RESIPE_SIMD_AVX512)

template <>
struct simd<double, 8> {
  __m512d v;

  simd() = default;
  explicit simd(double broadcast) : v(_mm512_set1_pd(broadcast)) {}
  explicit simd(__m512d raw) : v(raw) {}

  static simd load(const double* p) { return simd(_mm512_load_pd(p)); }
  static simd loadu(const double* p) { return simd(_mm512_loadu_pd(p)); }
  void store(double* p) const { _mm512_store_pd(p, v); }
  void storeu(double* p) const { _mm512_storeu_pd(p, v); }

  friend simd operator+(simd a, simd b) {
    return simd(_mm512_add_pd(a.v, b.v));
  }
  friend simd operator-(simd a, simd b) {
    return simd(_mm512_sub_pd(a.v, b.v));
  }
  friend simd operator*(simd a, simd b) {
    return simd(_mm512_mul_pd(a.v, b.v));
  }
  friend simd operator/(simd a, simd b) {
    return simd(_mm512_div_pd(a.v, b.v));
  }

  using mask = __mmask8;

  friend mask operator>=(simd a, simd b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GE_OQ);
  }
  friend mask operator<=(simd a, simd b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LE_OQ);
  }
  friend mask operator>(simd a, simd b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_GT_OQ);
  }
  friend mask operator<(simd a, simd b) {
    return _mm512_cmp_pd_mask(a.v, b.v, _CMP_LT_OQ);
  }
};

inline simd<double, 8> min(simd<double, 8> a, simd<double, 8> b) {
  return simd<double, 8>(_mm512_min_pd(a.v, b.v));
}
inline simd<double, 8> max(simd<double, 8> a, simd<double, 8> b) {
  return simd<double, 8>(_mm512_max_pd(a.v, b.v));
}
inline simd<double, 8> select(simd<double, 8>::mask m, simd<double, 8> a,
                              simd<double, 8> b) {
  // blend: picks b where the bit is set, so route through mask_mov.
  return simd<double, 8>(_mm512_mask_mov_pd(b.v, m, a.v));
}
inline std::size_t mask_count(simd<double, 8>::mask m) {
  return static_cast<std::size_t>(__builtin_popcount(m));
}

inline simd<double, 8> round(simd<double, 8> x) {
  // std::round semantics (half away from zero) are not a roundscale
  // mode, so: truncate, then push |frac| >= 0.5 lanes one signed unit
  // further.  mask_add leaves untouched lanes (incl. -0.0) verbatim;
  // inf/NaN make frac NaN, the ordered compare stays false, and the
  // truncation (inf -> inf, NaN -> NaN) passes through.
  const __m512d sign = _mm512_set1_pd(-0.0);
  const __m512d t =
      _mm512_roundscale_pd(x.v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m512d frac = _mm512_sub_pd(x.v, t);
  const __mmask8 half = _mm512_cmp_pd_mask(
      _mm512_andnot_pd(sign, frac), _mm512_set1_pd(0.5), _CMP_GE_OQ);
  const __m512d one_signed =
      _mm512_or_pd(_mm512_set1_pd(1.0), _mm512_and_pd(x.v, sign));
  return simd<double, 8>(_mm512_mask_add_pd(t, half, t, one_signed));
}

inline simd<double, 8> exp(simd<double, 8> x) {
  using V = simd<double, 8>;
  const __m512d clamped = _mm512_max_pd(
      _mm512_min_pd(x.v, _mm512_set1_pd(detail::kExpMaxArg)),
      _mm512_set1_pd(detail::kExpMinArg));
  const __m512d n = _mm512_roundscale_pd(
      _mm512_mul_pd(clamped, _mm512_set1_pd(detail::kLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m512d r = _mm512_fnmadd_pd(n, _mm512_set1_pd(detail::kLn2Hi), clamped);
  r = _mm512_fnmadd_pd(n, _mm512_set1_pd(detail::kLn2Lo), r);
  const __m512d z = _mm512_mul_pd(r, r);
  __m512d p = _mm512_set1_pd(detail::kExpP0);
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(detail::kExpP1));
  p = _mm512_fmadd_pd(p, z, _mm512_set1_pd(detail::kExpP2));
  p = _mm512_mul_pd(p, r);
  __m512d q = _mm512_set1_pd(detail::kExpQ0);
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(detail::kExpQ1));
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(detail::kExpQ2));
  q = _mm512_fmadd_pd(q, z, _mm512_set1_pd(detail::kExpQ3));
  const __m512d e = _mm512_add_pd(
      _mm512_set1_pd(1.0),
      _mm512_mul_pd(_mm512_set1_pd(2.0),
                    _mm512_div_pd(p, _mm512_sub_pd(q, p))));
  __m512d out = _mm512_scalef_pd(e, n);
  // Saturate outside the clamp range; propagate NaN.
  const __mmask8 hi =
      _mm512_cmp_pd_mask(x.v, _mm512_set1_pd(detail::kExpMaxArg), _CMP_GT_OQ);
  const __mmask8 lo =
      _mm512_cmp_pd_mask(x.v, _mm512_set1_pd(detail::kExpMinArg), _CMP_LT_OQ);
  const __mmask8 nan = _mm512_cmp_pd_mask(x.v, x.v, _CMP_UNORD_Q);
  out = _mm512_mask_mov_pd(
      out, hi, _mm512_set1_pd(std::numeric_limits<double>::infinity()));
  out = _mm512_mask_mov_pd(out, lo, _mm512_setzero_pd());
  out = _mm512_mask_mov_pd(out, nan, x.v);
  return V(out);
}

inline simd<double, 8> log(simd<double, 8> x) {
  using V = simd<double, 8>;
  // getmant([0.5, 1)) + getexp give an exact branch-free frexp.
  __m512d m =
      _mm512_getmant_pd(x.v, _MM_MANT_NORM_p5_1, _MM_MANT_SIGN_zero);
  __m512d e = _mm512_add_pd(_mm512_getexp_pd(x.v), _mm512_set1_pd(1.0));
  const __mmask8 small =
      _mm512_cmp_pd_mask(m, _mm512_set1_pd(detail::kSqrtHalf), _CMP_LT_OQ);
  e = _mm512_mask_sub_pd(e, small, e, _mm512_set1_pd(1.0));
  m = _mm512_mask_add_pd(m, small, m, m);  // m *= 2 on the small half
  m = _mm512_sub_pd(m, _mm512_set1_pd(1.0));

  const __m512d z = _mm512_mul_pd(m, m);
  __m512d p = _mm512_set1_pd(detail::kLogP0);
  p = _mm512_fmadd_pd(p, m, _mm512_set1_pd(detail::kLogP1));
  p = _mm512_fmadd_pd(p, m, _mm512_set1_pd(detail::kLogP2));
  p = _mm512_fmadd_pd(p, m, _mm512_set1_pd(detail::kLogP3));
  p = _mm512_fmadd_pd(p, m, _mm512_set1_pd(detail::kLogP4));
  p = _mm512_fmadd_pd(p, m, _mm512_set1_pd(detail::kLogP5));
  __m512d q = _mm512_add_pd(m, _mm512_set1_pd(detail::kLogQ0));
  q = _mm512_fmadd_pd(q, m, _mm512_set1_pd(detail::kLogQ1));
  q = _mm512_fmadd_pd(q, m, _mm512_set1_pd(detail::kLogQ2));
  q = _mm512_fmadd_pd(q, m, _mm512_set1_pd(detail::kLogQ3));
  q = _mm512_fmadd_pd(q, m, _mm512_set1_pd(detail::kLogQ4));
  __m512d y = _mm512_mul_pd(_mm512_mul_pd(m, z), _mm512_div_pd(p, q));
  y = _mm512_fmadd_pd(e, _mm512_set1_pd(detail::kLogC1), y);
  y = _mm512_fnmadd_pd(_mm512_set1_pd(0.5), z, y);
  __m512d out = _mm512_add_pd(
      m, _mm512_fmadd_pd(e, _mm512_set1_pd(detail::kLogC2), y));

  // Domain edges: log(0) = -inf, log(<0) = NaN, log(inf) = inf,
  // log(NaN) = NaN.
  const __mmask8 zero =
      _mm512_cmp_pd_mask(x.v, _mm512_setzero_pd(), _CMP_EQ_OQ);
  const __mmask8 neg =
      _mm512_cmp_pd_mask(x.v, _mm512_setzero_pd(), _CMP_LT_OQ);
  const __mmask8 inf = _mm512_cmp_pd_mask(
      x.v, _mm512_set1_pd(std::numeric_limits<double>::infinity()),
      _CMP_EQ_OQ);
  const __mmask8 nan = _mm512_cmp_pd_mask(x.v, x.v, _CMP_UNORD_Q);
  out = _mm512_mask_mov_pd(
      out, zero, _mm512_set1_pd(-std::numeric_limits<double>::infinity()));
  out = _mm512_mask_mov_pd(
      out, neg, _mm512_set1_pd(std::numeric_limits<double>::quiet_NaN()));
  out = _mm512_mask_mov_pd(
      out, inf, _mm512_set1_pd(std::numeric_limits<double>::infinity()));
  out = _mm512_mask_mov_pd(out, nan, x.v);
  return V(out);
}

inline constexpr std::size_t native_lanes = 8;
inline constexpr const char* kCompiledIsa = "avx512";

// --- AVX2 + FMA backend ------------------------------------------------

#elif defined(RESIPE_SIMD_AVX2)

template <>
struct simd<double, 4> {
  __m256d v;

  simd() = default;
  explicit simd(double broadcast) : v(_mm256_set1_pd(broadcast)) {}
  explicit simd(__m256d raw) : v(raw) {}

  static simd load(const double* p) { return simd(_mm256_load_pd(p)); }
  static simd loadu(const double* p) { return simd(_mm256_loadu_pd(p)); }
  void store(double* p) const { _mm256_store_pd(p, v); }
  void storeu(double* p) const { _mm256_storeu_pd(p, v); }

  friend simd operator+(simd a, simd b) {
    return simd(_mm256_add_pd(a.v, b.v));
  }
  friend simd operator-(simd a, simd b) {
    return simd(_mm256_sub_pd(a.v, b.v));
  }
  friend simd operator*(simd a, simd b) {
    return simd(_mm256_mul_pd(a.v, b.v));
  }
  friend simd operator/(simd a, simd b) {
    return simd(_mm256_div_pd(a.v, b.v));
  }

  /// All-ones lanes select; the sign bit is what blendv reads.
  struct mask {
    __m256d m;
  };

  friend mask operator>=(simd a, simd b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GE_OQ)};
  }
  friend mask operator<=(simd a, simd b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LE_OQ)};
  }
  friend mask operator>(simd a, simd b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_GT_OQ)};
  }
  friend mask operator<(simd a, simd b) {
    return {_mm256_cmp_pd(a.v, b.v, _CMP_LT_OQ)};
  }
};

inline simd<double, 4> min(simd<double, 4> a, simd<double, 4> b) {
  return simd<double, 4>(_mm256_min_pd(a.v, b.v));
}
inline simd<double, 4> max(simd<double, 4> a, simd<double, 4> b) {
  return simd<double, 4>(_mm256_max_pd(a.v, b.v));
}
inline simd<double, 4> select(simd<double, 4>::mask m, simd<double, 4> a,
                              simd<double, 4> b) {
  return simd<double, 4>(_mm256_blendv_pd(b.v, a.v, m.m));
}
inline simd<double, 4>::mask operator&(simd<double, 4>::mask a,
                                       simd<double, 4>::mask b) {
  return {_mm256_and_pd(a.m, b.m)};
}
inline std::size_t mask_count(simd<double, 4>::mask m) {
  return static_cast<std::size_t>(
      __builtin_popcount(static_cast<unsigned>(_mm256_movemask_pd(m.m))));
}

inline simd<double, 4> round(simd<double, 4> x) {
  // std::round (half away from zero): truncate, then push |frac| >= 0.5
  // lanes one signed unit further.  The adjustment must be a blend, not
  // an and+add — adding +0.0 to a -0.0 lane would flip it to +0.0 and
  // break bit-equality with std::round.  inf/NaN lanes leave frac NaN,
  // the ordered compare stays false, and truncation passes them through.
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d t =
      _mm256_round_pd(x.v, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(x.v, t);
  const __m256d half = _mm256_cmp_pd(_mm256_andnot_pd(sign, frac),
                                     _mm256_set1_pd(0.5), _CMP_GE_OQ);
  const __m256d one_signed =
      _mm256_or_pd(_mm256_set1_pd(1.0), _mm256_and_pd(x.v, sign));
  return simd<double, 4>(
      _mm256_blendv_pd(t, _mm256_add_pd(t, one_signed), half));
}

inline simd<double, 4> exp(simd<double, 4> x) {
  using V = simd<double, 4>;
  const __m256d clamped = _mm256_max_pd(
      _mm256_min_pd(x.v, _mm256_set1_pd(detail::kExpMaxArg)),
      _mm256_set1_pd(detail::kExpMinArg));
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(clamped, _mm256_set1_pd(detail::kLog2E)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(detail::kLn2Hi), clamped);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(detail::kLn2Lo), r);
  const __m256d z = _mm256_mul_pd(r, r);
  __m256d p = _mm256_set1_pd(detail::kExpP0);
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(detail::kExpP1));
  p = _mm256_fmadd_pd(p, z, _mm256_set1_pd(detail::kExpP2));
  p = _mm256_mul_pd(p, r);
  __m256d q = _mm256_set1_pd(detail::kExpQ0);
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(detail::kExpQ1));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(detail::kExpQ2));
  q = _mm256_fmadd_pd(q, z, _mm256_set1_pd(detail::kExpQ3));
  const __m256d e = _mm256_add_pd(
      _mm256_set1_pd(1.0),
      _mm256_mul_pd(_mm256_set1_pd(2.0),
                    _mm256_div_pd(p, _mm256_sub_pd(q, p))));
  // 2^n via the exponent field; |n| <= 1075 after the clamp.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  // Split the scale in two to survive n < -1022 (subnormal results):
  // 2^n = 2^(n/2 rounded) * 2^(rest).  Cheaper: saturate tiny results
  // to zero via the lo mask below, which the kernels rely on anyway.
  __m256d out = _mm256_mul_pd(e, _mm256_castsi256_pd(bits));
  const __m256d hi =
      _mm256_cmp_pd(x.v, _mm256_set1_pd(detail::kExpMaxArg), _CMP_GT_OQ);
  const __m256d lo =
      _mm256_cmp_pd(x.v, _mm256_set1_pd(detail::kExpMinArg), _CMP_LT_OQ);
  const __m256d nan = _mm256_cmp_pd(x.v, x.v, _CMP_UNORD_Q);
  out = _mm256_blendv_pd(
      out, _mm256_set1_pd(std::numeric_limits<double>::infinity()), hi);
  out = _mm256_blendv_pd(out, _mm256_setzero_pd(), lo);
  out = _mm256_blendv_pd(out, x.v, nan);
  return V(out);
}

inline simd<double, 4> log(simd<double, 4> x) {
  using V = simd<double, 4>;
  // frexp via the exponent field (normals only; the kernels feed
  // normal positive arguments, edge lanes are overridden below).
  const __m256i bits = _mm256_castpd_si256(x.v);
  const __m256i expfield =
      _mm256_srli_epi64(_mm256_and_si256(
          bits, _mm256_set1_epi64x(0x7FF0000000000000LL)), 52);
  const __m256i mantbits = _mm256_or_si256(
      _mm256_and_si256(bits, _mm256_set1_epi64x(0x000FFFFFFFFFFFFFLL)),
      _mm256_set1_epi64x(0x3FE0000000000000LL));  // m in [0.5, 1)
  __m256d m = _mm256_castsi256_pd(mantbits);
  // e = expfield - 1022 fits int32; narrow the int64 lanes and convert.
  const __m256i e64 = _mm256_sub_epi64(expfield, _mm256_set1_epi64x(1022));
  const __m128i e32 = _mm_castps_si128(_mm_shuffle_ps(
      _mm_castsi128_ps(_mm256_castsi256_si128(e64)),
      _mm_castsi128_ps(_mm256_extracti128_si256(e64, 1)),
      _MM_SHUFFLE(2, 0, 2, 0)));
  __m256d e = _mm256_cvtepi32_pd(e32);
  const __m256d small =
      _mm256_cmp_pd(m, _mm256_set1_pd(detail::kSqrtHalf), _CMP_LT_OQ);
  e = _mm256_sub_pd(e, _mm256_and_pd(small, _mm256_set1_pd(1.0)));
  m = _mm256_add_pd(m, _mm256_and_pd(small, m));  // m *= 2 where small
  m = _mm256_sub_pd(m, _mm256_set1_pd(1.0));

  const __m256d z = _mm256_mul_pd(m, m);
  __m256d p = _mm256_set1_pd(detail::kLogP0);
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(detail::kLogP1));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(detail::kLogP2));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(detail::kLogP3));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(detail::kLogP4));
  p = _mm256_fmadd_pd(p, m, _mm256_set1_pd(detail::kLogP5));
  __m256d q = _mm256_add_pd(m, _mm256_set1_pd(detail::kLogQ0));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(detail::kLogQ1));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(detail::kLogQ2));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(detail::kLogQ3));
  q = _mm256_fmadd_pd(q, m, _mm256_set1_pd(detail::kLogQ4));
  __m256d y = _mm256_mul_pd(_mm256_mul_pd(m, z), _mm256_div_pd(p, q));
  y = _mm256_fmadd_pd(e, _mm256_set1_pd(detail::kLogC1), y);
  y = _mm256_fnmadd_pd(_mm256_set1_pd(0.5), z, y);
  __m256d out =
      _mm256_add_pd(m, _mm256_fmadd_pd(e, _mm256_set1_pd(detail::kLogC2), y));

  const __m256d zero =
      _mm256_cmp_pd(x.v, _mm256_setzero_pd(), _CMP_EQ_OQ);
  const __m256d neg = _mm256_cmp_pd(x.v, _mm256_setzero_pd(), _CMP_LT_OQ);
  const __m256d inf = _mm256_cmp_pd(
      x.v, _mm256_set1_pd(std::numeric_limits<double>::infinity()),
      _CMP_EQ_OQ);
  const __m256d nan = _mm256_cmp_pd(x.v, x.v, _CMP_UNORD_Q);
  out = _mm256_blendv_pd(
      out, _mm256_set1_pd(-std::numeric_limits<double>::infinity()), zero);
  out = _mm256_blendv_pd(
      out, _mm256_set1_pd(std::numeric_limits<double>::quiet_NaN()), neg);
  out = _mm256_blendv_pd(
      out, _mm256_set1_pd(std::numeric_limits<double>::infinity()), inf);
  out = _mm256_blendv_pd(out, x.v, nan);
  return V(out);
}

inline constexpr std::size_t native_lanes = 4;
inline constexpr const char* kCompiledIsa = "avx2";

// --- NEON backend ------------------------------------------------------

#elif defined(RESIPE_SIMD_NEON)

template <>
struct simd<double, 2> {
  float64x2_t v;

  simd() = default;
  explicit simd(double broadcast) : v(vdupq_n_f64(broadcast)) {}
  explicit simd(float64x2_t raw) : v(raw) {}

  static simd load(const double* p) { return simd(vld1q_f64(p)); }
  static simd loadu(const double* p) { return simd(vld1q_f64(p)); }
  void store(double* p) const { vst1q_f64(p, v); }
  void storeu(double* p) const { vst1q_f64(p, v); }

  friend simd operator+(simd a, simd b) { return simd(vaddq_f64(a.v, b.v)); }
  friend simd operator-(simd a, simd b) { return simd(vsubq_f64(a.v, b.v)); }
  friend simd operator*(simd a, simd b) { return simd(vmulq_f64(a.v, b.v)); }
  friend simd operator/(simd a, simd b) { return simd(vdivq_f64(a.v, b.v)); }

  struct mask {
    uint64x2_t m;
  };

  friend mask operator>=(simd a, simd b) { return {vcgeq_f64(a.v, b.v)}; }
  friend mask operator<=(simd a, simd b) { return {vcleq_f64(a.v, b.v)}; }
  friend mask operator>(simd a, simd b) { return {vcgtq_f64(a.v, b.v)}; }
  friend mask operator<(simd a, simd b) { return {vcltq_f64(a.v, b.v)}; }
};

inline simd<double, 2> min(simd<double, 2> a, simd<double, 2> b) {
  return simd<double, 2>(vminq_f64(a.v, b.v));
}
inline simd<double, 2> max(simd<double, 2> a, simd<double, 2> b) {
  return simd<double, 2>(vmaxq_f64(a.v, b.v));
}
inline simd<double, 2> select(simd<double, 2>::mask m, simd<double, 2> a,
                              simd<double, 2> b) {
  return simd<double, 2>(vbslq_f64(m.m, a.v, b.v));
}
inline simd<double, 2>::mask operator&(simd<double, 2>::mask a,
                                       simd<double, 2>::mask b) {
  return {vandq_u64(a.m, b.m)};
}
inline std::size_t mask_count(simd<double, 2>::mask m) {
  return (vgetq_lane_u64(m.m, 0) ? 1u : 0u) +
         (vgetq_lane_u64(m.m, 1) ? 1u : 0u);
}

inline simd<double, 2> round(simd<double, 2> x) {
  // vrndaq_f64 is exactly std::round: nearest, ties away from zero.
  return simd<double, 2>(vrndaq_f64(x.v));
}

/// NEON transcendentals stay lane-serial libm: at two lanes the
/// polynomial bookkeeping does not pay for itself.
inline simd<double, 2> exp(simd<double, 2> x) {
  double t[2];
  x.store(t);
  t[0] = std::exp(t[0]);
  t[1] = std::exp(t[1]);
  return simd<double, 2>::load(t);
}
inline simd<double, 2> log(simd<double, 2> x) {
  double t[2];
  x.store(t);
  t[0] = std::log(t[0]);
  t[1] = std::log(t[1]);
  return simd<double, 2>::load(t);
}

inline constexpr std::size_t native_lanes = 2;
inline constexpr const char* kCompiledIsa = "neon";

#else  // scalar fallback

inline constexpr std::size_t native_lanes = 1;
inline constexpr const char* kCompiledIsa = "scalar";

#endif

/// The build's widest double vector.
using vdouble = simd<double, native_lanes>;

/// The width-1 vector: its kernel instances are the scalar reference.
using vscalar = simd<double, 1>;

/// The lane count of a simd type, native specializations included.
template <typename V>
inline constexpr std::size_t lanes = 0;
template <typename T, std::size_t N>
inline constexpr std::size_t lanes<simd<T, N>> = N;

/// Rounds n up to the next multiple of the native vector width.
inline constexpr std::size_t pad_to_lanes(std::size_t n) {
  return (n + native_lanes - 1) / native_lanes * native_lanes;
}

// --- runtime ISA control -----------------------------------------------

namespace detail {
inline bool resolve_force_scalar() {
  if (const char* env = std::getenv("RESIPE_SIMD")) {
    return std::strcmp(env, "scalar") == 0 || std::strcmp(env, "off") == 0 ||
           std::strcmp(env, "0") == 0;
  }
  return false;
}
inline bool& force_scalar_flag() {
  static bool flag = resolve_force_scalar();
  return flag;
}
}  // namespace detail

/// True when the vectorized kernel paths should run: a vector backend
/// was compiled in and the scalar path is not forced.
inline bool enabled() {
  return native_lanes > 1 && !detail::force_scalar_flag();
}

/// Overrides RESIPE_SIMD for this process (verify contracts and tests
/// flip this around calls; not thread-safe against running kernels).
inline void set_force_scalar(bool on) { detail::force_scalar_flag() = on; }

/// RAII force-scalar: the verify contracts bracket their reference runs
/// with this.
struct ForceScalarGuard {
  bool previous;
  ForceScalarGuard() : previous(detail::force_scalar_flag()) {
    set_force_scalar(true);
  }
  ~ForceScalarGuard() { set_force_scalar(previous); }
  ForceScalarGuard(const ForceScalarGuard&) = delete;
  ForceScalarGuard& operator=(const ForceScalarGuard&) = delete;
};

/// Runs a kernel body templated on its vector type: f(vdouble{}) when
/// `vector` is set, else f(vscalar{}), the scalar reference.
template <typename F>
inline void at_width(bool vector, F&& f) {
  if (vector) {
    f(vdouble{});
  } else {
    f(vscalar{});
  }
}

/// ISA the build selected at compile time.
inline const char* compiled_isa() { return kCompiledIsa; }

/// ISA the kernels are using right now ("scalar" when forced off at
/// run time or when the build has no vector backend).
inline const char* active_isa() {
  return enabled() ? kCompiledIsa : "scalar";
}

/// The -march-style flags this translation unit was built with
/// (stamped by CMake via RESIPE_MARCH_FLAGS; benches record it so perf
/// baselines are only compared like-for-like).
inline const char* march_flags() {
#if defined(RESIPE_MARCH_FLAGS)
  return RESIPE_MARCH_FLAGS;
#elif defined(RESIPE_SIMD_FORCE_SCALAR)
  return "(scalar build)";
#else
  return "(toolchain default)";
#endif
}

// --- aligned storage ---------------------------------------------------

/// Minimal aligned allocator so kernel arrays (conductance matrices,
/// batch scratch) satisfy the aligned-load contract.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) {}

  T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(kAlignment)));
  }
  void deallocate(T* p, std::size_t) {
    ::operator delete(p, std::align_val_t(kAlignment));
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const {
    return true;
  }
  template <typename U>
  bool operator!=(const AlignedAllocator<U>&) const {
    return false;
  }
};

}  // namespace resipe::simd
