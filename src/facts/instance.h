// The per-problem row block every summarization algorithm operates on.
#ifndef VQ_FACTS_INSTANCE_H_
#define VQ_FACTS_INSTANCE_H_

#include <string>
#include <vector>

#include "relational/predicate.h"
#include "storage/table.h"
#include "util/status.h"

namespace vq {

/// How the constant prior P(r) (Definition 4) is chosen.
enum class PriorKind {
  kGlobalAverage,  ///< average of the target column over the whole table
                   ///< (the paper's default, Section VIII-A)
  kSubsetAverage,  ///< average over the queried subset
  kZero,           ///< "users expect no delays by default" (Example 3)
  kConstant,       ///< explicit value
};

/// \brief One speech-summarization problem: the queried data subset projected
/// onto the fact-eligible dimensions, plus the prior.
///
/// Rows with identical dimension codes and identical target value are merged
/// with a multiplicity weight; all deviation/utility computations are
/// weighted, which leaves every result unchanged while shrinking the block
/// (targets here are integers in practice, so merge rates are high).
struct SummaryInstance {
  /// Fact-eligible dimension columns (indices into the source table) -- the
  /// dimensions not already fixed by the query's predicates.
  std::vector<int> dims;
  std::vector<std::string> dim_names;
  /// Cardinality of each fact-eligible dimension (full dictionary size).
  std::vector<size_t> dim_cardinalities;

  size_t num_rows = 0;                 ///< merged rows
  double total_weight = 0.0;           ///< original (pre-merge) row count
  std::vector<ValueId> codes;          ///< num_rows x dims.size(), row-major
  std::vector<double> target;          ///< per merged row
  std::vector<double> weight;          ///< multiplicity per merged row

  double prior = 0.0;                  ///< constant prior expectation

  std::string target_name;
  std::string target_unit;

  ValueId CodeAt(size_t row, size_t dim_pos) const {
    return codes[row * dims.size() + dim_pos];
  }

  /// Baseline error D(empty): weighted sum of |prior - target|.
  double BaseError() const;
};

/// Options controlling instance construction.
struct InstanceOptions {
  PriorKind prior_kind = PriorKind::kGlobalAverage;
  double prior_value = 0.0;  ///< used when prior_kind == kConstant
};

/// Builds the instance for `query predicates` on `target` of `table`.
/// Fact-eligible dimensions are all dimensions without a query predicate.
/// Fails if the subset is empty. (Dimensions beyond the packable cardinality
/// limit are rejected by FactCatalog::Build, which packs their codes.)
Result<SummaryInstance> BuildInstance(const Table& table,
                                      const PredicateSet& query_predicates,
                                      int target_index,
                                      const InstanceOptions& options = {});

/// The PriorKind::kGlobalAverage value: mean of the target column over the
/// whole table. Exposed so the serving layer's on-demand solver can compute
/// it once per target and substitute a kConstant prior WITHOUT duplicating
/// this formula (on-demand answers must reproduce stored ones exactly).
double GlobalAverage(const Table& table, int target_index);

/// Like BuildInstance, but over an already-filtered row list (`rows` must be
/// exactly the rows matching `query_predicates`). The single merge routine:
/// the serving layer's on-demand solver filters a miss's rows (FilterRows)
/// and builds its instance here, and pre-processing builds its per-target
/// base aggregate (no predicates, every row) here. Rows merge exactly on (codes, target bits):
/// -0.0 and +0.0 stay separate rows and a NaN row never merges. Merged rows
/// keep first-seen order.
Result<SummaryInstance> BuildInstanceFromRows(const Table& table,
                                              const PredicateSet& query_predicates,
                                              int target_index,
                                              const std::vector<uint32_t>& rows,
                                              const InstanceOptions& options = {});

/// Derives the instance of `query_predicates` from `parent`, an instance that
/// keeps every predicate's dimension (typically the base aggregate: the
/// empty query's instance over the whole table). Keeps the parent rows whose
/// predicate dimensions match, drops the predicate columns and copies the
/// weights -- no filter over raw rows and no re-merge. Because every
/// predicate dimension is part of the parent's merge key, the result is
/// bit-identical to BuildInstanceFromRows over the filtered rows. The prior
/// follows `options`; kGlobalAverage is inherited from `parent`, which must
/// have been built with the same options. Fails with InvalidArgument if a
/// predicate's dimension is not in `parent.dims`, NotFound if no row matches.
Result<SummaryInstance> SliceInstance(const SummaryInstance& parent,
                                      const PredicateSet& query_predicates,
                                      const InstanceOptions& options = {});

}  // namespace vq

#endif  // VQ_FACTS_INSTANCE_H_
