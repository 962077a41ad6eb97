// Deviation and utility evaluation (Definitions 5-6) over a fact catalog.
#ifndef VQ_CORE_EVALUATOR_H_
#define VQ_CORE_EVALUATOR_H_

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "core/expectation.h"
#include "facts/catalog.h"
#include "facts/instance.h"

namespace vq {

/// Work counters exposed by the algorithms (used by the Figure 3/4 benches
/// and the pruning ablation).
struct PerfCounters {
  uint64_t join_rows = 0;      ///< row visits in utility-gain joins
  uint64_t bound_rows = 0;     ///< row visits in upper-bound group-bys
  uint64_t groups_joined = 0;  ///< fact groups whose utilities were computed
  uint64_t groups_pruned = 0;  ///< fact groups eliminated by bounds
  uint64_t leaf_evals = 0;     ///< complete speeches evaluated exactly
  uint64_t nodes_expanded = 0; ///< search-tree expansions (exact algorithm)
  uint64_t pruned_by_bound = 0;  ///< subtrees cut by the utility bound

  /// THE field list: the one place that enumerates every counter, in
  /// serialization order. Add()/Merged() and the bench JSON/table writers
  /// all iterate it (via ForEachField), so a new counter added here is
  /// merged and serialized everywhere without touching another call site.
  static constexpr size_t kNumFields = 7;
  static const std::array<uint64_t PerfCounters::*, kNumFields> kFields;
  static const std::array<const char*, kNumFields> kFieldNames;

  /// Invokes fn(name, value) for every counter, in kFields order.
  template <typename Fn>
  void ForEachField(Fn&& fn) const {
    for (size_t i = 0; i < kNumFields; ++i) fn(kFieldNames[i], this->*kFields[i]);
  }

  /// Plain (non-atomic) accumulate. NOT safe for concurrent use: callers
  /// merging counters produced on multiple threads must serialize the merge
  /// (EngineHost does so under its perf mutex) or keep per-thread counters
  /// and combine after joining.
  void Add(const PerfCounters& other);

  /// Value-returning merge: `*this` plus `other`, leaving both operands
  /// untouched. The footgun-free spelling for cross-thread aggregation
  /// sites (`shared = shared.Merged(per_thread)` under the owner's mutex
  /// reads as the copy-merge-publish it is, where a bare Add() invites
  /// calling it on a shared object from worker threads).
  PerfCounters Merged(const PerfCounters& other) const;
};

/// \brief Evaluates deviation/utility of fact sets for one instance.
///
/// All computations are weighted by the instance's row multiplicities, which
/// is exactly equivalent to iterating the original rows.
///
/// Since the indexed-scan refactor the speech paths are bitset-vectorized:
/// the catalog's per-fact scope bitsets are ORed into a per-word cover mask,
/// whole 64-row blocks no speech fact touches reduce to one precomputed
/// weighted prior-deviation sum, and only covered rows resolve conflicting
/// facts. The initialization join iterates each fact's CSR scope rows.
/// PerfCounters are charged from the scope popcounts, which sum to exactly
/// the per-group row totals the seed implementation charged.
///
/// Since the SIMD-kernel refactor those block loops run through the
/// runtime-dispatched kernel table (util/simd.h): the cover mask comes from
/// one fused OR+popcount pass, uncovered rows inside partially covered
/// blocks reduce with the masked block-sum kernel over the padded
/// prior-deviation array, and the initialization join streams the catalog's
/// SoA block-delta tables (ScopeDevs/ScopeWeights) through the positive-gain
/// gather kernel. Under kClosest, rows covered by exactly one speech fact
/// additionally resolve branchlessly through the masked single-fact kernel
/// (their contribution is min(weighted fact deviation, weighted prior
/// deviation)); only rows covered by SEVERAL facts still walk the
/// row-at-a-time ExpectedValue conflict loop. Results match the *Reference paths to relative 1e-12 (the
/// kernels reassociate sums; the forced-scalar table is bit-identical), and
/// counter totals are unchanged.
class Evaluator {
 public:
  Evaluator(const SummaryInstance* instance, const FactCatalog* catalog);

  const SummaryInstance& instance() const { return *instance_; }
  const FactCatalog& catalog() const { return *catalog_; }

  /// D(empty): weighted deviation between prior and actual values.
  double BaseError() const { return base_error_; }

  /// D(F): accumulated deviation for a speech under `model`.
  double Error(std::span<const FactId> speech,
               ConflictModel model = ConflictModel::kClosest) const;

  /// U(F) = D(empty) - D(F).
  double Utility(std::span<const FactId> speech,
                 ConflictModel model = ConflictModel::kClosest) const;

  /// Per-row expected values after listening to `speech`.
  std::vector<double> RowExpectations(std::span<const FactId> speech,
                                      ConflictModel model) const;

  /// Single-fact utility for every catalog fact (the initialization join of
  /// Algorithm 1, Line 6). Counters are charged to `counters` if non-null.
  std::vector<double> SingleFactUtilities(PerfCounters* counters = nullptr) const;

  /// Row-at-a-time reference implementations (the seed code paths), kept so
  /// the golden equivalence tests and bench/scan_throughput.cpp can compare
  /// the vectorized paths against them -- and used as the execution path
  /// when the catalog capped its scope bitsets (FactCatalog::HasScopeBits).
  double ErrorReference(std::span<const FactId> speech,
                        ConflictModel model = ConflictModel::kClosest) const;
  std::vector<double> RowExpectationsReference(std::span<const FactId> speech,
                                               ConflictModel model) const;
  std::vector<double> SingleFactUtilitiesReference(
      PerfCounters* counters = nullptr) const;

  /// |prior - target[r]| per merged row, precomputed once (GreedyState
  /// seeds its per-row deviation column from this instead of re-deriving).
  std::span<const double> PriorDeviations() const { return prior_dev_; }

 private:
  const SummaryInstance* instance_;
  const FactCatalog* catalog_;
  double base_error_ = 0.0;
  /// |prior - target[r]| and its weighted form, precomputed once.
  /// prior_dev_weighted_ is zero-padded to a whole number of 64-row blocks:
  /// the masked block-sum kernel loads full vector lanes, so every block it
  /// touches must be readable end to end (padding lanes carry 0.0 and the
  /// cover masks never select them).
  std::vector<double> prior_dev_;
  std::vector<double> prior_dev_weighted_;
  /// Block-padded copies of the instance's target and weight columns (same
  /// padding contract), the inputs of the masked single-fact kernel: under
  /// kClosest, rows covered by exactly ONE speech fact resolve branchlessly
  /// as min(weighted fact deviation, weighted prior deviation) -- see
  /// Error(). Rows covered by several facts still go through ExpectedValue.
  std::vector<double> target_padded_;
  std::vector<double> weight_padded_;
  /// Weighted prior deviation summed per 64-row block: the O(1) reduction
  /// for blocks no speech fact covers.
  std::vector<double> prior_block_weighted_;
};

/// \brief Mutable greedy state: per-row current deviation given the facts
/// chosen so far (the E column Algorithm 2 recomputes in Line 11).
class GreedyState {
 public:
  explicit GreedyState(const Evaluator& evaluator);

  /// Current accumulated (weighted) deviation.
  double CurrentError() const { return current_error_; }

  /// Utility gains of all facts in `group_index` given the current state;
  /// accumulated into `gains` (indexed by FactId). Returns the best
  /// (gain, fact) in the group. This is the join + Gamma of Line 7.
  std::pair<double, FactId> AccumulateGroupGains(uint32_t group_index,
                                                 std::vector<double>* gains,
                                                 PerfCounters* counters) const;

  /// Upper bound on the utility gain of any fact in `group_index`: the
  /// maximum, over the group's facts, of the summed current deviation within
  /// the fact's scope (Algorithm 3, Line 15 -- a group-by without a join).
  double GroupUtilityBound(uint32_t group_index, PerfCounters* counters) const;

  /// Applies a chosen fact: per-row deviation becomes the minimum of the
  /// current deviation and the fact's deviation (Line 11 of Algorithm 2).
  void ApplyFact(FactId id);

 private:
  const Evaluator* evaluator_;
  std::vector<double> row_deviation_;  ///< unweighted |E - v| per merged row
  double current_error_ = 0.0;
};

}  // namespace vq

#endif  // VQ_CORE_EVALUATOR_H_
