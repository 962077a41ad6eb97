#include "util/simd.h"

#include <atomic>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

// The AVX2 section relies on GCC/Clang-only constructs (per-function
// target attributes, __builtin_cpu_supports), so MSVC x64 (_M_X64 without
// __GNUC__) deliberately falls back to scalar-only.
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define VQ_SIMD_X86 1
#include <immintrin.h>
#endif

namespace vq {
namespace simd {

namespace {

// --------------------------------------------------------------- scalar
// Straight loops, written to visit elements in exactly the order the seed
// implementations did: the forced-scalar configuration is bit-identical to
// the retained *Reference paths, which makes it the oracle for the others.

uint64_t OrPopcountScalar(const uint64_t* const* sets, size_t num_sets,
                          size_t num_words, uint64_t* covered) {
  uint64_t total = 0;
  for (size_t w = 0; w < num_words; ++w) {
    uint64_t acc = 0;
    for (size_t s = 0; s < num_sets; ++s) acc |= sets[s][w];
    covered[w] = acc;
    total += static_cast<uint64_t>(std::popcount(acc));
  }
  return total;
}

double MaskedSum64Scalar(const double* block, uint64_t mask) {
  double sum = 0.0;
  while (mask != 0) {
    sum += block[std::countr_zero(mask)];
    mask &= mask - 1;
  }
  return sum;
}

double WeightedAbsDevScalar(double center, const double* values,
                            const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t i = 0; i < n; ++i) sum += std::fabs(center - values[i]) * weights[i];
  return sum;
}

double PositiveGainScalar(const double* current, const double* devs,
                          const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double gain = current[k] - devs[k];
    if (gain > 0.0) sum += gain * weights[k];
  }
  return sum;
}

double GatherWeightedSumScalar(const double* dense, const uint32_t* rows,
                               const double* weights, size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) sum += dense[rows[k]] * weights[k];
  return sum;
}

double GatherPositiveGainScalar(const double* dense, const uint32_t* rows,
                                const double* devs, const double* weights,
                                size_t n) {
  double sum = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double gain = dense[rows[k]] - devs[k];
    if (gain > 0.0) sum += gain * weights[k];
  }
  return sum;
}

double MinUpdateScalar(double* dense, const uint32_t* rows, const double* devs,
                       const double* weights, size_t n) {
  double reduction = 0.0;
  for (size_t k = 0; k < n; ++k) {
    double current = dense[rows[k]];
    if (devs[k] < current) {
      reduction += (current - devs[k]) * weights[k];
      dense[rows[k]] = devs[k];
    }
  }
  return reduction;
}

size_t ArgMaxScalar(const double* values, size_t n) {
  size_t best = 0;
  for (size_t i = 1; i < n; ++i) {
    if (values[i] > values[best]) best = i;
  }
  return best;
}

double MaskedSingleFactScalar(double value, const double* targets,
                              const double* weights,
                              const double* prior_dev_weighted, uint64_t mask) {
  double sum = 0.0;
  while (mask != 0) {
    int i = std::countr_zero(mask);
    mask &= mask - 1;
    double fact_dev = std::fabs(value - targets[i]) * weights[i];
    sum += fact_dev < prior_dev_weighted[i] ? fact_dev : prior_dev_weighted[i];
  }
  return sum;
}

const Kernels kScalarKernels = {
    "scalar",                OrPopcountScalar,         MaskedSum64Scalar,
    MaskedSingleFactScalar,  WeightedAbsDevScalar,     PositiveGainScalar,
    GatherWeightedSumScalar, GatherPositiveGainScalar,
    MinUpdateScalar,         ArgMaxScalar,
};

// ----------------------------------------------------------------- AVX2
// Compiled with per-function target attributes so the translation unit (and
// the rest of the library) keeps the generic x86-64 baseline; the dispatcher
// only hands these out after __builtin_cpu_supports("avx2") says yes.
#if VQ_SIMD_X86

#define VQ_AVX2 __attribute__((target("avx2,fma,popcnt")))

VQ_AVX2 inline double HorizontalSum(__m256d v) {
  __m128d lo = _mm256_castpd256_pd128(v);
  __m128d hi = _mm256_extractf128_pd(v, 1);
  lo = _mm_add_pd(lo, hi);
  return _mm_cvtsd_f64(_mm_add_sd(lo, _mm_unpackhi_pd(lo, lo)));
}

VQ_AVX2 inline __m256d Abs(__m256d v) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), v);
}

/// Gather of 4 doubles via the masked form with an explicit zero source:
/// the plain _mm256_i32gather_pd leaves its pass-through operand undefined,
/// which GCC's -Wmaybe-uninitialized flags from inside avx2intrin.h. Same
/// vgatherdpd instruction, warning-free.
VQ_AVX2 inline __m256d Gather4(const double* base, __m128i idx) {
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), base, idx, all, 8);
}

VQ_AVX2 uint64_t OrPopcountAvx2(const uint64_t* const* sets, size_t num_sets,
                                size_t num_words, uint64_t* covered) {
  uint64_t total = 0;
  size_t w = 0;
  if (num_sets > 0) {
    for (; w + 4 <= num_words; w += 4) {
      __m256i acc = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(sets[0] + w));
      for (size_t s = 1; s < num_sets; ++s) {
        acc = _mm256_or_si256(
            acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(sets[s] + w)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(covered + w), acc);
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w]));
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w + 1]));
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w + 2]));
      total += static_cast<uint64_t>(_mm_popcnt_u64(covered[w + 3]));
    }
  }
  for (; w < num_words; ++w) {
    uint64_t acc = 0;
    for (size_t s = 0; s < num_sets; ++s) acc |= sets[s][w];
    covered[w] = acc;
    total += static_cast<uint64_t>(_mm_popcnt_u64(acc));
  }
  return total;
}

VQ_AVX2 double MaskedSum64Avx2(const double* block, uint64_t mask) {
  if (mask == 0) return 0.0;
  // Expand each nibble of the mask into four qword lane masks and sum the
  // selected lanes; the whole 64-double block must be readable (the loads
  // touch cleared lanes), which Evaluator guarantees by padding.
  const __m256i kBitSelect = _mm256_set_epi64x(8, 4, 2, 1);
  __m256d acc = _mm256_setzero_pd();
  for (int i = 0; i < 64; i += 4) {
    uint64_t nibble = (mask >> i) & 0xF;
    if (nibble == 0) continue;
    __m256i sel = _mm256_and_si256(
        _mm256_set1_epi64x(static_cast<long long>(nibble)), kBitSelect);
    __m256d lane_mask = _mm256_castsi256_pd(_mm256_cmpeq_epi64(sel, kBitSelect));
    acc = _mm256_add_pd(acc,
                        _mm256_and_pd(lane_mask, _mm256_loadu_pd(block + i)));
  }
  return HorizontalSum(acc);
}

VQ_AVX2 double WeightedAbsDevAvx2(double center, const double* values,
                                  const double* weights, size_t n) {
  const __m256d vcenter = _mm256_set1_pd(center);
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m256d d0 = Abs(_mm256_sub_pd(vcenter, _mm256_loadu_pd(values + i)));
    __m256d d1 = Abs(_mm256_sub_pd(vcenter, _mm256_loadu_pd(values + i + 4)));
    acc0 = _mm256_fmadd_pd(d0, _mm256_loadu_pd(weights + i), acc0);
    acc1 = _mm256_fmadd_pd(d1, _mm256_loadu_pd(weights + i + 4), acc1);
  }
  for (; i + 4 <= n; i += 4) {
    __m256d d = Abs(_mm256_sub_pd(vcenter, _mm256_loadu_pd(values + i)));
    acc0 = _mm256_fmadd_pd(d, _mm256_loadu_pd(weights + i), acc0);
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; i < n; ++i) sum += std::fabs(center - values[i]) * weights[i];
  return sum;
}

VQ_AVX2 double PositiveGainAvx2(const double* current, const double* devs,
                                const double* weights, size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 8 <= n; k += 8) {
    __m256d g0 = _mm256_max_pd(
        _mm256_sub_pd(_mm256_loadu_pd(current + k), _mm256_loadu_pd(devs + k)),
        zero);
    __m256d g1 = _mm256_max_pd(
        _mm256_sub_pd(_mm256_loadu_pd(current + k + 4),
                      _mm256_loadu_pd(devs + k + 4)),
        zero);
    acc0 = _mm256_fmadd_pd(g0, _mm256_loadu_pd(weights + k), acc0);
    acc1 = _mm256_fmadd_pd(g1, _mm256_loadu_pd(weights + k + 4), acc1);
  }
  for (; k + 4 <= n; k += 4) {
    __m256d gain = _mm256_max_pd(
        _mm256_sub_pd(_mm256_loadu_pd(current + k), _mm256_loadu_pd(devs + k)),
        zero);
    acc0 = _mm256_fmadd_pd(gain, _mm256_loadu_pd(weights + k), acc0);
  }
  double sum = HorizontalSum(_mm256_add_pd(acc0, acc1));
  for (; k < n; ++k) {
    double gain = current[k] - devs[k];
    if (gain > 0.0) sum += gain * weights[k];
  }
  return sum;
}

VQ_AVX2 double GatherWeightedSumAvx2(const double* dense, const uint32_t* rows,
                                     const double* weights, size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d gathered = Gather4(dense, idx);
    acc = _mm256_fmadd_pd(gathered, _mm256_loadu_pd(weights + k), acc);
  }
  double sum = HorizontalSum(acc);
  for (; k < n; ++k) sum += dense[rows[k]] * weights[k];
  return sum;
}

VQ_AVX2 double GatherPositiveGainAvx2(const double* dense, const uint32_t* rows,
                                      const double* devs, const double* weights,
                                      size_t n) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d gathered = Gather4(dense, idx);
    __m256d gain = _mm256_sub_pd(gathered, _mm256_loadu_pd(devs + k));
    gain = _mm256_max_pd(gain, zero);  // branchless max(0, gain)
    acc = _mm256_fmadd_pd(gain, _mm256_loadu_pd(weights + k), acc);
  }
  double sum = HorizontalSum(acc);
  for (; k < n; ++k) {
    double gain = dense[rows[k]] - devs[k];
    if (gain > 0.0) sum += gain * weights[k];
  }
  return sum;
}

VQ_AVX2 double MinUpdateAvx2(double* dense, const uint32_t* rows,
                             const double* devs, const double* weights,
                             size_t n) {
  __m256d acc = _mm256_setzero_pd();
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    __m128i idx = _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows + k));
    __m256d current = Gather4(dense, idx);
    __m256d dv = _mm256_loadu_pd(devs + k);
    __m256d lowered = _mm256_cmp_pd(dv, current, _CMP_LT_OQ);
    __m256d delta = _mm256_and_pd(
        lowered, _mm256_mul_pd(_mm256_sub_pd(current, dv),
                               _mm256_loadu_pd(weights + k)));
    acc = _mm256_add_pd(acc, delta);
    // AVX2 has no scatter: store the blended minima lane by lane. The CSR
    // row lists hold distinct indices, so the gather above never observes a
    // row this batch also writes.
    alignas(32) double updated[4];
    _mm256_store_pd(updated, _mm256_blendv_pd(current, dv, lowered));
    dense[rows[k]] = updated[0];
    dense[rows[k + 1]] = updated[1];
    dense[rows[k + 2]] = updated[2];
    dense[rows[k + 3]] = updated[3];
  }
  double reduction = HorizontalSum(acc);
  for (; k < n; ++k) {
    double current = dense[rows[k]];
    if (devs[k] < current) {
      reduction += (current - devs[k]) * weights[k];
      dense[rows[k]] = devs[k];
    }
  }
  return reduction;
}

VQ_AVX2 size_t ArgMaxAvx2(const double* values, size_t n) {
  if (n < 8) return ArgMaxScalar(values, n);
  __m256d best = _mm256_loadu_pd(values);
  __m256i best_idx = _mm256_set_epi64x(3, 2, 1, 0);
  size_t k = 4;
  for (; k + 4 <= n; k += 4) {
    __m256d v = _mm256_loadu_pd(values + k);
    __m256i idx = _mm256_add_epi64(_mm256_set1_epi64x(static_cast<long long>(k)),
                                   _mm256_set_epi64x(3, 2, 1, 0));
    // Strictly-greater keeps the earliest occurrence within each lane.
    __m256d gt = _mm256_cmp_pd(v, best, _CMP_GT_OQ);
    best = _mm256_blendv_pd(best, v, gt);
    best_idx = _mm256_blendv_epi8(best_idx, idx, _mm256_castpd_si256(gt));
  }
  alignas(32) double lane_val[4];
  alignas(32) int64_t lane_idx[4];
  _mm256_store_pd(lane_val, best);
  _mm256_store_si256(reinterpret_cast<__m256i*>(lane_idx), best_idx);
  // Cross-lane reduction: greatest value wins, the smaller index on ties, so
  // the overall result is the lowest index attaining the maximum.
  double best_value = lane_val[0];
  size_t best_index = static_cast<size_t>(lane_idx[0]);
  for (int lane = 1; lane < 4; ++lane) {
    size_t index = static_cast<size_t>(lane_idx[lane]);
    if (lane_val[lane] > best_value ||
        (lane_val[lane] == best_value && index < best_index)) {
      best_value = lane_val[lane];
      best_index = index;
    }
  }
  for (; k < n; ++k) {
    if (values[k] > best_value) {
      best_value = values[k];
      best_index = k;
    }
  }
  return best_index;
}

const Kernels kAvx2Kernels = {
    "avx2",                 OrPopcountAvx2,         MaskedSum64Avx2,
    MaskedSingleFactScalar, WeightedAbsDevAvx2,     PositiveGainAvx2,
    GatherWeightedSumAvx2,  GatherPositiveGainAvx2,
    MinUpdateAvx2,          ArgMaxAvx2,
};

// --------------------------------------------------------------- AVX-512
// Eight-lane kernels, kept only for the slots where they measurably beat
// the avx2 variant (bench/simd_kernels.cpp records every table's slots;
// see BENCH_simd.json "tables"): the masked block sum and argmax. The
// table's other slots borrow the avx2 or scalar functions, so dispatch to
// it also requires every avx2 feature (SupportsAvx512). Everything below
// sticks to the F foundation subset. The masked block sum's
// fault-suppressing masked loads (_mm512_maskz_loadu_pd) make each bitset
// byte a first-class lane mask, so it never touches unselected rows.

// GCC's avx512fintrin.h builds even plain intrinsics (the reduce helpers)
// on _mm512_undefined_pd(), which -W(maybe-)uninitialized flags once they
// inline into user code, so the section silences just those two warnings.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wuninitialized"
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"

#define VQ_AVX512 __attribute__((target("avx512f")))

VQ_AVX512 double MaskedSum64Avx512(const double* block, uint64_t mask) {
  if (mask == 0) return 0.0;
  // Each byte of the row mask IS the lane mask of one maskz load: selected
  // lanes arrive, cleared lanes are architecturally zero and never touched.
  __m512d acc = _mm512_setzero_pd();
  for (int i = 0; i < 64; i += 8) {
    __mmask8 m = static_cast<__mmask8>((mask >> i) & 0xFF);
    if (m == 0) continue;
    acc = _mm512_add_pd(acc, _mm512_maskz_loadu_pd(m, block + i));
  }
  return _mm512_reduce_add_pd(acc);
}

VQ_AVX512 size_t ArgMaxAvx512(const double* values, size_t n) {
  if (n < 16) return ArgMaxScalar(values, n);
  __m512d best = _mm512_loadu_pd(values);
  __m512i best_idx = _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0);
  const __m512i kLane = best_idx;
  size_t k = 8;
  for (; k + 8 <= n; k += 8) {
    __m512d v = _mm512_loadu_pd(values + k);
    __m512i idx =
        _mm512_add_epi64(_mm512_set1_epi64(static_cast<long long>(k)), kLane);
    // Strictly-greater keeps the earliest occurrence within each lane.
    __mmask8 gt = _mm512_cmp_pd_mask(v, best, _CMP_GT_OQ);
    best = _mm512_mask_blend_pd(gt, best, v);
    best_idx = _mm512_mask_blend_epi64(gt, best_idx, idx);
  }
  alignas(64) double lane_val[8];
  alignas(64) int64_t lane_idx[8];
  _mm512_store_pd(lane_val, best);
  _mm512_store_si512(lane_idx, best_idx);
  // Cross-lane reduction: greatest value wins, the smaller index on ties, so
  // the overall result is the lowest index attaining the maximum.
  double best_value = lane_val[0];
  size_t best_index = static_cast<size_t>(lane_idx[0]);
  for (int lane = 1; lane < 8; ++lane) {
    size_t index = static_cast<size_t>(lane_idx[lane]);
    if (lane_val[lane] > best_value ||
        (lane_val[lane] == best_value && index < best_index)) {
      best_value = lane_val[lane];
      best_index = index;
    }
  }
  for (; k < n; ++k) {
    if (values[k] > best_value) {
      best_value = values[k];
      best_index = k;
    }
  }
  return best_index;
}

const Kernels kAvx512Kernels = {
    "avx512",               OrPopcountAvx2,         MaskedSum64Avx512,
    MaskedSingleFactScalar, WeightedAbsDevAvx2,     PositiveGainAvx2,
    GatherWeightedSumAvx2,  GatherPositiveGainAvx2,
    MinUpdateAvx2,          ArgMaxAvx512,
};

#pragma GCC diagnostic pop

#endif  // VQ_SIMD_X86

// -------------------------------------------------------------- dispatch

bool EnvForceScalar() {
  const char* env = std::getenv("VQ_FORCE_SCALAR");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

#if VQ_SIMD_X86
// Probe EVERY feature a table's target attributes name: a CPU model (or
// emulation mask) can expose avx2 while hiding fma/popcnt, and handing out
// the table anyway would SIGILL on the first kernel call.
bool SupportsAvx2() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma") &&
         __builtin_cpu_supports("popcnt");
}

// The avx512 table borrows avx2 kernels, so it needs their features too.
bool SupportsAvx512() {
  return __builtin_cpu_supports("avx512f") && SupportsAvx2();
}
#endif

/// The best table this build + CPU can run (ignoring overrides).
const Kernels* BestSupported() {
#if VQ_SIMD_X86
  if (SupportsAvx512()) return &kAvx512Kernels;
  if (SupportsAvx2()) return &kAvx2Kernels;
#endif
  return &kScalarKernels;
}

/// One-shot selection: compile-time pin, then environment, then CPU probe.
const Kernels* Dispatch() {
#if defined(VQ_FORCE_SCALAR_BUILD)
  return &kScalarKernels;
#else
  if (EnvForceScalar()) return &kScalarKernels;
  return BestSupported();
#endif
}

std::atomic<const Kernels*> g_override{nullptr};

}  // namespace

const Kernels& Active() {
  // Latched on first use; the atomic override only serves benches/tests.
  static const Kernels* const selected = Dispatch();
  const Kernels* override_table = g_override.load(std::memory_order_acquire);
  return override_table != nullptr ? *override_table : *selected;
}

const Kernels& Scalar() { return kScalarKernels; }

const std::vector<const Kernels*>& AllImplementations() {
  static const std::vector<const Kernels*> all = [] {
    std::vector<const Kernels*> tables;
    tables.push_back(&kScalarKernels);
    // Vector tables are listed even in a VQ_FORCE_SCALAR build (they are
    // compiled either way) so equivalence tests always exercise them when
    // the CPU can run them; only Active()'s selection is pinned. EVERY
    // runnable table is listed, not just the dispatch winner -- on an
    // AVX-512 machine the avx2 table must stay under test too.
#if VQ_SIMD_X86
    if (SupportsAvx2()) tables.push_back(&kAvx2Kernels);
    if (SupportsAvx512()) tables.push_back(&kAvx512Kernels);
#endif
    return tables;
  }();
  return all;
}

const Kernels* ByName(const char* name) {
  for (const Kernels* table : AllImplementations()) {
    if (std::strcmp(table->name, name) == 0) return table;
  }
  return nullptr;
}

bool ForcedScalar() {
#if defined(VQ_FORCE_SCALAR_BUILD)
  return true;
#else
  return EnvForceScalar();
#endif
}

void SetActiveForTesting(const Kernels* kernels) {
  g_override.store(kernels, std::memory_order_release);
}

}  // namespace simd
}  // namespace vq
