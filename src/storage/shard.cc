#include "storage/shard.h"

#include "storage/table.h"

namespace vq {

ShardIndex ShardIndex::Build(const Table& table, uint32_t base,
                             uint32_t num_rows) {
  ShardIndex shard;
  shard.base_ = base;
  shard.num_rows_ = num_rows;
  shard.num_targets_ = table.NumTargets();
  size_t num_dims = table.NumDims();
  shard.offsets_.resize(num_dims);
  shard.rows_.resize(num_dims);
  shard.target_sums_.resize(num_dims);

  for (size_t d = 0; d < num_dims; ++d) {
    std::span<const ValueId> column = table.DimColumn(d);
    size_t cardinality = table.dict(d).size();

    // Counting pass over the shard's row range -> exclusive prefix sums.
    std::vector<uint32_t> offsets(cardinality + 1, 0);
    for (uint32_t r = 0; r < num_rows; ++r) ++offsets[column[base + r] + 1];
    for (size_t v = 1; v <= cardinality; ++v) offsets[v] += offsets[v - 1];

    // Fill pass: ascending local row order makes every posting list sorted.
    std::vector<uint32_t> rows(num_rows);
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    std::vector<double> sums(cardinality * shard.num_targets_, 0.0);
    for (uint32_t r = 0; r < num_rows; ++r) {
      ValueId code = column[base + r];
      rows[cursor[code]++] = r;
      double* value_sums = sums.data() + code * shard.num_targets_;
      for (size_t t = 0; t < shard.num_targets_; ++t) {
        value_sums[t] += table.TargetValue(base + r, t);
      }
    }
    shard.offsets_[d].Assign(std::move(offsets));
    shard.rows_[d].Assign(std::move(rows));
    shard.target_sums_[d].Assign(std::move(sums));
  }
  return shard;
}

ShardIndex ShardIndex::FromViews(uint32_t base, uint32_t num_rows,
                                 size_t num_targets,
                                 std::vector<DimViews> dims) {
  ShardIndex shard;
  shard.base_ = base;
  shard.num_rows_ = num_rows;
  shard.num_targets_ = num_targets;
  shard.offsets_.resize(dims.size());
  shard.rows_.resize(dims.size());
  shard.target_sums_.resize(dims.size());
  for (size_t d = 0; d < dims.size(); ++d) {
    shard.offsets_[d] = ColumnStorage<uint32_t>::View(dims[d].offsets);
    shard.rows_[d] = ColumnStorage<uint32_t>::View(dims[d].rows);
    shard.target_sums_[d] = ColumnStorage<double>::View(dims[d].sums);
  }
  return shard;
}

size_t ShardIndex::EstimateBytes() const {
  size_t bytes = 0;
  for (const auto& offsets : offsets_) bytes += offsets.CapacityBytes();
  for (const auto& rows : rows_) bytes += rows.CapacityBytes();
  for (const auto& sums : target_sums_) bytes += sums.CapacityBytes();
  return bytes;
}

}  // namespace vq
