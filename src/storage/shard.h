// One row shard of a Table's inverted index.
//
// Since the sharded-storage refactor a table's rows are split into
// contiguous shards of ~TargetShardRows() rows each; every shard owns the
// full per-shard index state: CSR-packed posting lists (SHARD-LOCAL row
// ids) and per-(dim,value) row counts and target sums. The table-level
// TableIndex (storage/index.h) is a thin facade over the shard vector plus
// merged per-(dim,value) aggregates for the O(1) Count/TargetSum contract.
//
// Local-id invariant: a posting list holds row offsets RELATIVE to the
// shard's base row, strictly ascending. Global ids are `base() + local`,
// so concatenating per-shard results in shard order yields globally
// ascending row ids -- the property the scan planner's partial-merge
// (relational/scan_partial.h) relies on for bit-identical results.
#ifndef VQ_STORAGE_SHARD_H_
#define VQ_STORAGE_SHARD_H_

#include <cstdint>
#include <span>
#include <vector>

#include "storage/column.h"

namespace vq {

class Table;
using ValueId = uint32_t;

/// \brief Immutable inverted index over one contiguous row range of a Table.
class ShardIndex {
 public:
  /// Builds the index for rows [base, base + num_rows) of `table`.
  static ShardIndex Build(const Table& table, uint32_t base, uint32_t num_rows);

  /// Per-dimension CSR arrays for FromViews: spans into an externally pinned
  /// buffer (the snapshot mapping). `offsets` has cardinality + 1 entries,
  /// `rows` has num_rows entries (ascending local ids per value), `sums` has
  /// cardinality x num_targets entries.
  struct DimViews {
    std::span<const uint32_t> offsets;
    std::span<const uint32_t> rows;
    std::span<const double> sums;
  };

  /// Zero-copy counterpart of Build: adopts pre-built CSR arrays as views
  /// instead of scanning the table. The caller (storage/snapshot.cc) pins
  /// the buffer behind the spans for the shard's lifetime and guarantees
  /// the arrays satisfy the local-id invariant (they were written by a
  /// cold Build of the same table).
  static ShardIndex FromViews(uint32_t base, uint32_t num_rows,
                              size_t num_targets,
                              std::vector<DimViews> dims);

  /// Shard ordinal within the table (0-based, assigned by TableIndex).
  uint32_t ordinal() const { return ordinal_; }
  /// First global row id of this shard.
  uint32_t base() const { return base_; }
  uint32_t num_rows() const { return num_rows_; }
  size_t num_dims() const { return offsets_.size(); }

  /// Sorted SHARD-LOCAL row ids with `value` in dimension `dim`. Values
  /// beyond the dictionary size at build time (including the kNoValue
  /// sentinel, which would wrap a `value + 1` comparison) yield an empty
  /// span.
  std::span<const uint32_t> Postings(size_t dim, ValueId value) const {
    const auto& offsets = offsets_[dim];
    if (value >= offsets.size() - 1) return {};
    const uint32_t* list_base = rows_[dim].data();
    return {list_base + offsets[value], list_base + offsets[value + 1]};
  }

  /// Rows of this shard with `value` in dimension `dim` (O(1)).
  size_t Count(size_t dim, ValueId value) const {
    const auto& offsets = offsets_[dim];
    if (value >= offsets.size() - 1) return 0;
    return offsets[value + 1] - offsets[value];
  }

  /// Sum of target column `target` over this shard's rows with `value` in
  /// dimension `dim` (O(1)).
  double TargetSum(size_t dim, ValueId value, size_t target) const {
    const auto& sums = target_sums_[dim];
    size_t cardinality = offsets_[dim].size() - 1;
    if (value >= cardinality) return 0.0;
    return sums[value * num_targets_ + target];
  }

  /// Raw CSR arrays for one dimension, exactly as stored; the snapshot
  /// writer (storage/snapshot.cc) serializes these verbatim so FromViews
  /// can adopt them byte-identically.
  std::span<const uint32_t> OffsetsArray(size_t dim) const {
    return offsets_[dim].span();
  }
  std::span<const uint32_t> RowsArray(size_t dim) const {
    return rows_[dim].span();
  }
  std::span<const double> SumsArray(size_t dim) const {
    return target_sums_[dim].span();
  }
  size_t num_targets() const { return num_targets_; }

  /// Approximate heap footprint.
  size_t EstimateBytes() const;

 private:
  friend class TableIndex;  // assigns ordinal_ when placing shards

  uint32_t ordinal_ = 0;
  uint32_t base_ = 0;
  uint32_t num_rows_ = 0;
  size_t num_targets_ = 0;
  /// Per dim: value -> start offset into rows_[dim]; length cardinality + 1.
  /// ColumnStorage so a snapshot-loaded shard can view the arrays in place.
  std::vector<ColumnStorage<uint32_t>> offsets_;
  /// Per dim: posting lists back to back, ascending LOCAL row ids per value.
  std::vector<ColumnStorage<uint32_t>> rows_;
  /// Per dim: cardinality x num_targets sums, row-major by value.
  std::vector<ColumnStorage<double>> target_sums_;
};

}  // namespace vq

#endif  // VQ_STORAGE_SHARD_H_
