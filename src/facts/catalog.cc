#include "facts/catalog.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <unordered_map>

#include "relational/group_by.h"

namespace vq {

Result<FactCatalog> FactCatalog::Build(const SummaryInstance& instance,
                                       int max_fact_dims, int min_fact_dims) {
  if (max_fact_dims < 0 || static_cast<size_t>(max_fact_dims) > kMaxGroupDims) {
    return Status::InvalidArgument("max_fact_dims must be in [0, " +
                                   std::to_string(kMaxGroupDims) + "]");
  }
  if (min_fact_dims < 0 || min_fact_dims > max_fact_dims) {
    return Status::InvalidArgument("min_fact_dims must be in [0, max_fact_dims]");
  }
  size_t num_dims = instance.dims.size();
  if (num_dims > 31) {
    return Status::Unsupported("more than 31 fact-eligible dimensions");
  }
  // Fact keys pack each code into 16 bits (PackGroupKey).
  for (size_t d = 0; d < instance.dim_cardinalities.size(); ++d) {
    if (instance.dim_cardinalities[d] > kMaxPackableCode) {
      return Status::Unsupported("dimension '" + instance.dim_names[d] +
                                 "' exceeds the packable cardinality limit");
    }
  }

  std::vector<uint32_t> masks;
  for (uint32_t mask = 0; mask < (1u << num_dims); ++mask) {
    int mask_dims = std::popcount(mask);
    if (mask_dims >= min_fact_dims && mask_dims <= max_fact_dims) masks.push_back(mask);
  }
  // Every group holds one CSR entry per row, and offsets and FactIds are
  // uint32_t.
  if (!masks.empty() && instance.num_rows > UINT32_MAX / masks.size()) {
    return Status::Unsupported("fact groups x instance rows exceeds 2^32");
  }

  FactCatalog catalog;
  // Fact ids by the mixed-radix cell of a group's codes. Ids only grow, so an
  // id below the group's first_fact is stale (an earlier group's) and the
  // array never needs clearing. Groups with more cells than the cap use a
  // hash map instead, so a small instance never fills a large array.
  const size_t max_dense_cells = std::max<size_t>(size_t{1} << 16, 4 * instance.num_rows);
  std::vector<FactId> dense;
  // Per-fact row counts at [id + 2], prefix-summed into CSR offsets below.
  catalog.scope_row_offsets_.assign(2, 0);
  for (uint32_t mask : masks) {
    FactGroup group;
    group.mask = mask;
    size_t cards[kMaxGroupDims];
    size_t cells = 1;  // saturates once above the cap
    for (size_t d = 0; d < num_dims; ++d) {
      if (!(mask & (1u << d))) continue;
      cards[group.dim_positions.size()] = instance.dim_cardinalities[d];
      if (cells <= max_dense_cells) cells *= instance.dim_cardinalities[d];
      group.dim_positions.push_back(static_cast<int>(d));
    }
    const size_t group_dims = group.dim_positions.size();
    const bool use_dense = cells <= max_dense_cells;
    if (use_dense && dense.size() < cells) dense.resize(cells, kNoFact);
    std::unordered_map<uint64_t, FactId> fact_of_key;
    group.first_fact = static_cast<FactId>(catalog.facts_.size());
    group.row_fact.resize(instance.num_rows, kNoFact);

    // One pass: assign each row to its value-combination fact, creating
    // facts on first sight and accumulating sum/weight for typical values.
    std::vector<double> sums;
    ValueId codes[kMaxGroupDims];
    for (size_t r = 0; r < instance.num_rows; ++r) {
      size_t cell = 0;
      for (size_t i = 0; i < group_dims; ++i) {
        codes[i] = instance.CodeAt(r, static_cast<size_t>(group.dim_positions[i]));
        if (codes[i] >= cards[i]) {
          return Status::InvalidArgument("instance code beyond its dimension's cardinality");
        }
        cell = cell * cards[i] + codes[i];
      }
      std::span<const ValueId> key_codes(codes, group_dims);
      FactId& id = use_dense ? dense[cell]
                             : fact_of_key.try_emplace(PackGroupKey(key_codes), kNoFact)
                                   .first->second;
      if (id == kNoFact || id < group.first_fact) {
        id = static_cast<FactId>(catalog.facts_.size());
        Fact fact;
        fact.group = static_cast<uint32_t>(catalog.groups_.size());
        fact.packed = PackGroupKey(key_codes);
        catalog.facts_.push_back(fact);
        sums.push_back(0.0);
        catalog.scope_row_offsets_.push_back(0);
      }
      group.row_fact[r] = id;
      ++catalog.scope_row_offsets_[id + 2];
      double w = instance.weight[r];
      catalog.facts_[id].scope_weight += w;
      sums[id - group.first_fact] += instance.target[r] * w;
    }
    group.num_facts = static_cast<uint32_t>(catalog.facts_.size()) - group.first_fact;
    for (uint32_t i = 0; i < group.num_facts; ++i) {
      Fact& fact = catalog.facts_[group.first_fact + i];
      fact.value = fact.scope_weight > 0.0 ? sums[i] / fact.scope_weight : 0.0;
    }
    catalog.groups_.push_back(std::move(group));
  }

  // Materialize per-fact row membership from the scope joins: one flat
  // bitset (bit r set iff the row is in scope) plus CSR row lists. Every
  // group partitions the rows, so the CSR arrays hold exactly num_groups *
  // num_rows entries and per-fact popcounts sum to num_rows within a group.
  size_t num_facts = catalog.facts_.size();
  size_t words = (instance.num_rows + 63) / 64;
  catalog.scope_words_ = words;
  // The flat bitset is num_facts * num_rows BITS -- quadratic when facts
  // approach the row count -- so it is capped; the Evaluator falls back to
  // its reference paths when HasScopeBits() is false.
  catalog.has_scope_bits_ = num_facts * words <= kMaxScopeBitsWords;
  if (catalog.has_scope_bits_) catalog.scope_bits_.assign(num_facts * words, 0);
  for (size_t i = 2; i < catalog.scope_row_offsets_.size(); ++i) {
    catalog.scope_row_offsets_[i] += catalog.scope_row_offsets_[i - 1];
  }
  catalog.scope_rows_.resize(catalog.groups_.size() * instance.num_rows);
  catalog.scope_devs_.resize(catalog.scope_rows_.size());
  catalog.scope_weights_.resize(catalog.scope_rows_.size());
  catalog.scope_prior_devs_.resize(catalog.scope_rows_.size());
  // scope_row_offsets_[id + 1] doubles as the fill cursor of fact id during
  // this pass; afterwards it has advanced to the fact's end offset, which is
  // exactly what ScopeRows(id) expects. The SoA block-delta tables are
  // filled in the same pass (typical values are final by this point).
  for (const FactGroup& group : catalog.groups_) {
    for (size_t r = 0; r < instance.num_rows; ++r) {
      FactId id = group.row_fact[r];
      uint32_t pos = catalog.scope_row_offsets_[id + 1]++;
      catalog.scope_rows_[pos] = static_cast<uint32_t>(r);
      catalog.scope_devs_[pos] =
          std::fabs(catalog.facts_[id].value - instance.target[r]);
      catalog.scope_weights_[pos] = instance.weight[r];
      catalog.scope_prior_devs_[pos] = std::fabs(instance.prior - instance.target[r]);
      if (catalog.has_scope_bits_) {
        catalog.scope_bits_[id * words + (r >> 6)] |= uint64_t{1} << (r & 63);
      }
    }
  }
  catalog.scope_row_offsets_.pop_back();
  return catalog;
}

int FactCatalog::GroupIndexForMask(uint32_t mask) const {
  // Groups are built in ascending mask order.
  auto it = std::lower_bound(groups_.begin(), groups_.end(), mask,
                             [](const FactGroup& g, uint32_t m) { return g.mask < m; });
  return it != groups_.end() && it->mask == mask ? static_cast<int>(it - groups_.begin()) : -1;
}

bool FactCatalog::RowInScope(size_t row, FactId id) const {
  const Fact& fact = facts_[id];
  return groups_[fact.group].row_fact[row] == id;
}

std::vector<std::pair<std::string, std::string>> FactCatalog::DescribeScope(
    const Table& table, const SummaryInstance& instance, FactId id) const {
  const Fact& fact = facts_[id];
  const FactGroup& group = groups_[fact.group];
  std::vector<std::pair<std::string, std::string>> out;
  // Unpack 16-bit fields in reverse of packing order.
  uint64_t packed = fact.packed;
  std::vector<ValueId> values(group.dim_positions.size());
  for (size_t i = group.dim_positions.size(); i-- > 0;) {
    values[i] = static_cast<ValueId>((packed & 0xFFFF) - 1);
    packed >>= 16;
  }
  for (size_t i = 0; i < group.dim_positions.size(); ++i) {
    int dim_pos = group.dim_positions[i];
    int table_dim = instance.dims[static_cast<size_t>(dim_pos)];
    out.emplace_back(table.DimName(static_cast<size_t>(table_dim)),
                     table.dict(static_cast<size_t>(table_dim)).Lookup(values[i]));
  }
  return out;
}

}  // namespace vq
