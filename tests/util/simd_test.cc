// Property tests for the SIMD kernel layer: every implementation the build +
// CPU can run must agree with the scalar fallback -- bit-exactly for the
// integer kernels (or_popcount, argmax, the values min_update stores) and to
// relative 1e-12 for the floating reductions (vector lanes reassociate) --
// and the evaluator/greedy consumers must agree with their *Reference paths
// under EVERY implementation. The "simd-scalar" preset reruns this whole
// binary in a VQ_FORCE_SCALAR=ON build, covering the pinned configuration.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "core/greedy.h"
#include "testing/random_instance.h"
#include "util/simd.h"
#include "util/small_vector.h"

namespace vq {
namespace {

constexpr double kRelTol = 1e-12;

double Tol(double reference) { return kRelTol * std::max(1.0, std::fabs(reference)); }

/// Random dense array; mixes magnitudes so reassociation actually bites.
std::vector<double> RandomArray(Rng* rng, size_t n, double scale = 100.0) {
  std::vector<double> out(n);
  for (double& v : out) v = rng->NextUniform(-scale, scale);
  return out;
}

std::vector<double> RandomWeights(Rng* rng, size_t n) {
  std::vector<double> out(n);
  for (double& v : out) v = rng->NextUniform(0.0, 8.0);
  return out;
}

/// Random strictly-ascending row indices into a dense array of `dense_size`
/// (the CSR scope-list shape the gather kernels consume).
std::vector<uint32_t> RandomRows(Rng* rng, size_t n, size_t dense_size) {
  std::vector<uint32_t> all(dense_size);
  std::iota(all.begin(), all.end(), 0);
  for (size_t i = 0; i < n; ++i) {
    size_t j = i + static_cast<size_t>(rng->NextBelow(dense_size - i));
    std::swap(all[i], all[j]);
  }
  all.resize(n);
  std::sort(all.begin(), all.end());
  return all;
}

/// The interesting size boundaries: empty, below one vector, exact vector
/// multiples, odd tails, and big enough to exercise the unrolled loops.
const size_t kSizes[] = {0, 1, 2, 3, 4, 5, 7, 8, 15, 16, 63, 64, 65, 257, 1000};

TEST(SimdKernelsTest, ScalarTableIsAlwaysFirstImplementation) {
  const auto& all = simd::AllImplementations();
  ASSERT_FALSE(all.empty());
  EXPECT_STREQ(all[0]->name, "scalar");
  EXPECT_EQ(simd::ByName("scalar"), &simd::Scalar());
  EXPECT_EQ(simd::ByName("no-such-table"), nullptr);
}

TEST(SimdKernelsTest, OrPopcountMatchesScalarExactly) {
  Rng rng(7);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t words : {size_t{0}, size_t{1}, size_t{3}, size_t{4}, size_t{9},
                         size_t{64}, size_t{187}}) {
      for (size_t num_sets : {size_t{0}, size_t{1}, size_t{2}, size_t{5}}) {
        std::vector<std::vector<uint64_t>> sets(num_sets);
        std::vector<const uint64_t*> pointers;
        for (auto& set : sets) {
          set.resize(words);
          for (uint64_t& word : set) {
            // Mix sparse, dense and zero words.
            switch (rng.NextBelow(3)) {
              case 0: word = 0; break;
              case 1: word = rng.NextU64() & rng.NextU64() & rng.NextU64(); break;
              default: word = rng.NextU64(); break;
            }
          }
          pointers.push_back(set.data());
        }
        std::vector<uint64_t> covered_impl(words, 0xDEADBEEF);
        std::vector<uint64_t> covered_scalar(words, 0xFEEDFACE);
        uint64_t total_impl = impl->or_popcount(pointers.data(), num_sets, words,
                                                covered_impl.data());
        uint64_t total_scalar = simd::Scalar().or_popcount(
            pointers.data(), num_sets, words, covered_scalar.data());
        EXPECT_EQ(total_impl, total_scalar) << impl->name << " words=" << words;
        EXPECT_EQ(covered_impl, covered_scalar) << impl->name << " words=" << words;
      }
    }
  }
}

TEST(SimdKernelsTest, MaskedSum64MatchesScalar) {
  Rng rng(11);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    std::vector<double> block = RandomArray(&rng, 64);
    const uint64_t masks[] = {0ull,
                              1ull,
                              0x8000000000000000ull,
                              0xFFFFFFFFFFFFFFFFull,
                              0x5555555555555555ull,
                              0xAAAAAAAAAAAAAAAAull,
                              rng.NextU64(),
                              rng.NextU64() & rng.NextU64(),
                              rng.NextU64() | rng.NextU64()};
    for (uint64_t mask : masks) {
      double reference = simd::Scalar().masked_sum64(block.data(), mask);
      double got = impl->masked_sum64(block.data(), mask);
      EXPECT_NEAR(got, reference, Tol(reference)) << impl->name << " mask=" << mask;
    }
  }
}

TEST(SimdKernelsTest, MaskedSingleFactMatchesScalar) {
  Rng rng(29);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (int round = 0; round < 4; ++round) {
      std::vector<double> targets = RandomArray(&rng, 64);
      std::vector<double> weights = RandomWeights(&rng, 64);
      // Weighted prior deviations straddling the fact deviations, so the
      // min() picks each side often (a lane-blend bug would surface here).
      std::vector<double> prior_dev_weighted(64);
      for (size_t i = 0; i < 64; ++i) {
        prior_dev_weighted[i] =
            weights[i] * std::fabs(rng.NextUniform(-120.0, 120.0) - targets[i]);
      }
      const uint64_t masks[] = {0ull,
                                1ull,
                                0x8000000000000000ull,
                                0xFFFFFFFFFFFFFFFFull,
                                0x5555555555555555ull,
                                0x00FF00FF00FF00FFull,
                                rng.NextU64(),
                                rng.NextU64() & rng.NextU64()};
      for (uint64_t mask : masks) {
        double value = rng.NextUniform(-120.0, 120.0);
        double reference = simd::Scalar().masked_single_fact(
            value, targets.data(), weights.data(), prior_dev_weighted.data(), mask);
        double got = impl->masked_single_fact(
            value, targets.data(), weights.data(), prior_dev_weighted.data(), mask);
        EXPECT_NEAR(got, reference, Tol(reference))
            << impl->name << " mask=" << mask;
      }
    }
  }
}

TEST(SimdKernelsTest, DenseReductionsMatchScalar) {
  Rng rng(13);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      std::vector<double> values = RandomArray(&rng, n);
      std::vector<double> weights = RandomWeights(&rng, n);
      double center = rng.NextUniform(-50.0, 50.0);
      double ref_sum = simd::Scalar().weighted_sum(values.data(), weights.data(), n);
      EXPECT_NEAR(impl->weighted_sum(values.data(), weights.data(), n), ref_sum,
                  Tol(ref_sum))
          << impl->name << " n=" << n;
      double ref_dev =
          simd::Scalar().weighted_abs_dev(center, values.data(), weights.data(), n);
      EXPECT_NEAR(impl->weighted_abs_dev(center, values.data(), weights.data(), n),
                  ref_dev, Tol(ref_dev))
          << impl->name << " n=" << n;
      // Dense positive-gain: devs near values so the max(0, .) flips often.
      std::vector<double> devs(n);
      for (size_t i = 0; i < n; ++i) devs[i] = values[i] + rng.NextUniform(-1.0, 1.0);
      double ref_gain = simd::Scalar().positive_gain(values.data(), devs.data(),
                                                     weights.data(), n);
      EXPECT_NEAR(impl->positive_gain(values.data(), devs.data(), weights.data(), n),
                  ref_gain, Tol(ref_gain))
          << impl->name << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, GatherReductionsMatchScalar) {
  Rng rng(17);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      size_t dense_size = std::max<size_t>(n * 3, 16);
      std::vector<double> dense = RandomArray(&rng, dense_size);
      std::vector<uint32_t> rows = RandomRows(&rng, n, dense_size);
      std::vector<double> weights = RandomWeights(&rng, n);
      // Deviations near the dense values, so max(0, gain) flips sign often:
      // a branchless-vs-branchy mismatch would surface here.
      std::vector<double> devs(n);
      for (size_t k = 0; k < n; ++k) {
        devs[k] = dense[rows[k]] + rng.NextUniform(-1.0, 1.0);
      }
      double ref_sum = simd::Scalar().gather_weighted_sum(dense.data(), rows.data(),
                                                          weights.data(), n);
      EXPECT_NEAR(
          impl->gather_weighted_sum(dense.data(), rows.data(), weights.data(), n),
          ref_sum, Tol(ref_sum))
          << impl->name << " n=" << n;
      double ref_gain = simd::Scalar().gather_positive_gain(
          dense.data(), rows.data(), devs.data(), weights.data(), n);
      EXPECT_NEAR(impl->gather_positive_gain(dense.data(), rows.data(), devs.data(),
                                             weights.data(), n),
                  ref_gain, Tol(ref_gain))
          << impl->name << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, MinUpdateMatchesScalarAndStoresExactMinima) {
  Rng rng(19);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      size_t dense_size = std::max<size_t>(n * 2, 8);
      std::vector<double> dense = RandomArray(&rng, dense_size, 10.0);
      std::vector<uint32_t> rows = RandomRows(&rng, n, dense_size);
      std::vector<double> weights = RandomWeights(&rng, n);
      std::vector<double> devs(n);
      for (size_t k = 0; k < n; ++k) devs[k] = rng.NextUniform(-10.0, 10.0);
      std::vector<double> dense_impl = dense;
      std::vector<double> dense_scalar = dense;
      double reduction_impl = impl->min_update(dense_impl.data(), rows.data(),
                                               devs.data(), weights.data(), n);
      double reduction_scalar = simd::Scalar().min_update(
          dense_scalar.data(), rows.data(), devs.data(), weights.data(), n);
      EXPECT_NEAR(reduction_impl, reduction_scalar, Tol(reduction_scalar))
          << impl->name << " n=" << n;
      // The stored minima are selections, not arithmetic: bit-exact.
      EXPECT_EQ(dense_impl, dense_scalar) << impl->name << " n=" << n;
    }
  }
}

TEST(SimdKernelsTest, ArgMaxMatchesScalarIncludingTies) {
  Rng rng(23);
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    for (size_t n : kSizes) {
      if (n == 0) continue;  // argmax requires n > 0
      std::vector<double> values = RandomArray(&rng, n);
      EXPECT_EQ(impl->argmax(values.data(), n),
                simd::Scalar().argmax(values.data(), n))
          << impl->name << " n=" << n;
      // Force exact duplicated maxima at random positions: the LOWEST index
      // must win regardless of which vector lane saw it.
      double peak = 1e6;
      size_t copies = 1 + rng.NextBelow(std::min<size_t>(n, 5));
      for (size_t c = 0; c < copies; ++c) {
        values[rng.NextBelow(n)] = peak;
      }
      EXPECT_EQ(impl->argmax(values.data(), n),
                simd::Scalar().argmax(values.data(), n))
          << impl->name << " n=" << n << " (ties)";
      // All-equal array: must return 0.
      std::fill(values.begin(), values.end(), 3.25);
      EXPECT_EQ(impl->argmax(values.data(), n), 0u) << impl->name << " n=" << n;
    }
  }
}

TEST(SimdSmallVectorTest, StaysInlineThenSpills) {
  SmallVector<double, 4> v;
  EXPECT_TRUE(v.empty());
  const double* inline_data = v.data();
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.data(), inline_data);  // still inline at capacity
  for (int i = 4; i < 100; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i);  // survived the spills
  v.clear();
  EXPECT_TRUE(v.empty());
  v.resize(7);
  EXPECT_EQ(v.size(), 7u);
}

// ---- Consumer equivalence under every implementation: the evaluator and
// greedy paths must produce *Reference-equal results no matter which kernel
// table dispatch hands them.

class ScopedKernelOverride {
 public:
  explicit ScopedKernelOverride(const simd::Kernels* kernels) {
    simd::SetActiveForTesting(kernels);
  }
  ~ScopedKernelOverride() { simd::SetActiveForTesting(nullptr); }
};

TEST(SimdEvaluatorEquivalenceTest, ErrorMatchesReferenceUnderEveryKernelTable) {
  const ConflictModel kModels[] = {ConflictModel::kClosest, ConflictModel::kFarthest,
                                   ConflictModel::kAverageScope,
                                   ConflictModel::kAverageAll};
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    ScopedKernelOverride override_kernels(impl);
    for (uint64_t seed : {3ull, 77ull}) {
      // Randomized catalogs: varying dimensions, cardinalities and rows
      // (including >64 so multi-word cover masks occur).
      testing::RandomProblem problem =
          testing::MakeRandomProblem(seed, 3, 4, 170, 25, 2);
      Rng rng(seed * 31 + 1);
      for (int trial = 0; trial < 25; ++trial) {
        std::vector<FactId> speech;
        size_t len = 1 + rng.NextBelow(4);
        for (size_t i = 0; i < len; ++i) {
          speech.push_back(
              static_cast<FactId>(rng.NextBelow(problem.catalog->NumFacts())));
        }
        for (ConflictModel model : kModels) {
          double reference = problem.evaluator->ErrorReference(speech, model);
          double got = problem.evaluator->Error(speech, model);
          EXPECT_NEAR(got, reference, Tol(reference))
              << impl->name << " seed=" << seed << " model "
              << ConflictModelName(model);
        }
      }
      // Single-fact utilities: same values AND same counter totals.
      PerfCounters fast_counters;
      PerfCounters reference_counters;
      std::vector<double> fast =
          problem.evaluator->SingleFactUtilities(&fast_counters);
      std::vector<double> reference =
          problem.evaluator->SingleFactUtilitiesReference(&reference_counters);
      ASSERT_EQ(fast.size(), reference.size());
      for (size_t f = 0; f < fast.size(); ++f) {
        EXPECT_NEAR(fast[f], reference[f], Tol(reference[f]))
            << impl->name << " fact " << f;
      }
      EXPECT_EQ(fast_counters.join_rows, reference_counters.join_rows) << impl->name;
      EXPECT_EQ(fast_counters.groups_joined, reference_counters.groups_joined)
          << impl->name;
    }
  }
}

TEST(SimdEvaluatorEquivalenceTest, GreedySolvesIdenticallyUnderEveryKernelTable) {
  for (uint64_t seed : {5ull, 123ull}) {
    testing::RandomProblem problem =
        testing::MakeRandomProblem(seed, 3, 3, 150, 30, 2);
    // Scalar is the oracle; every other table must pick the same facts and
    // charge the same counters (selection is argmax over gains that differ
    // only in the last ulps -- the instances are integer-valued, so exact
    // ties resolve identically through the lowest-index tie-break).
    SummaryResult oracle;
    {
      ScopedKernelOverride override_kernels(&simd::Scalar());
      oracle = GreedySummary(*problem.evaluator, GreedyOptions{});
    }
    for (const simd::Kernels* impl : simd::AllImplementations()) {
      ScopedKernelOverride override_kernels(impl);
      for (FactPruning pruning : {FactPruning::kNone, FactPruning::kOptimized}) {
        GreedyOptions options;
        options.pruning = pruning;
        SummaryResult result = GreedySummary(*problem.evaluator, options);
        EXPECT_EQ(result.facts, oracle.facts) << impl->name << " seed=" << seed;
        EXPECT_NEAR(result.error, oracle.error, Tol(oracle.error)) << impl->name;
        if (pruning == FactPruning::kNone) {
          EXPECT_EQ(result.counters.join_rows, oracle.counters.join_rows)
              << impl->name;
          EXPECT_EQ(result.counters.groups_joined, oracle.counters.groups_joined)
              << impl->name;
        }
      }
    }
  }
}

TEST(SimdDispatchTest, ImplementationListMatchesCpuFeatures) {
  // Every table the CPU can run must be listed (AllImplementations is the
  // coverage contract the property tests above iterate): a machine with
  // AVX-512F must test avx512 AND avx2, not just whichever dispatch picked.
#if defined(__x86_64__) || defined(__i386__)
  bool cpu_avx2 = __builtin_cpu_supports("avx2") &&
                  __builtin_cpu_supports("fma") &&
                  __builtin_cpu_supports("popcnt");
  // The avx512 table borrows avx2 kernels, so it needs every avx2 feature.
  bool cpu_avx512 = __builtin_cpu_supports("avx512f") && cpu_avx2;
  EXPECT_EQ(simd::ByName("avx2") != nullptr, cpu_avx2);
  EXPECT_EQ(simd::ByName("avx512") != nullptr, cpu_avx512);
#else
  EXPECT_EQ(simd::ByName("avx512"), nullptr);
#endif
}

TEST(SimdDispatchTest, ForcedScalarReflectsBuildAndEnvironment) {
#if defined(VQ_FORCE_SCALAR_BUILD)
  EXPECT_TRUE(simd::ForcedScalar());
  EXPECT_STREQ(simd::Active().name, "scalar");
#else
  // Whatever dispatch picked must be one of the runnable tables.
  const simd::Kernels& active = simd::Active();
  bool known = false;
  for (const simd::Kernels* impl : simd::AllImplementations()) {
    if (impl == &active) known = true;
  }
  EXPECT_TRUE(known);
  if (simd::ForcedScalar()) {
    EXPECT_STREQ(active.name, "scalar");
  }
#endif
}

}  // namespace
}  // namespace vq
