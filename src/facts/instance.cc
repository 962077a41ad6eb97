#include "facts/instance.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/fnv.h"
#include "util/simd.h"

namespace vq {

double GlobalAverage(const Table& table, int target_index) {
  std::span<const double> column =
      table.TargetColumn(static_cast<size_t>(target_index));
  double sum = 0.0;
  for (double v : column) sum += v;
  return column.empty() ? 0.0 : sum / static_cast<double>(column.size());
}

double SummaryInstance::BaseError() const {
  // D(empty) is a pure weighted absolute-deviation reduction; it runs once
  // per instance on the serving layer's on-demand path, so it goes through
  // the dispatched kernel rather than a scalar loop.
  return simd::Active().weighted_abs_dev(prior, target.data(), weight.data(),
                                         num_rows);
}

namespace {

// Sets the prior of an instance whose rows are merged. The kSubsetAverage
// prior is sum(w * t) / sum(w) over the merged rows, computed here only, so
// a sliced instance and a freshly merged one agree bit for bit.
// `global_average` is called for kGlobalAverage only.
template <typename GlobalAverageFn>
void SetPrior(const InstanceOptions& options, GlobalAverageFn global_average,
              SummaryInstance* inst) {
  switch (options.prior_kind) {
    case PriorKind::kGlobalAverage:
      inst->prior = global_average();
      break;
    case PriorKind::kSubsetAverage: {
      double sum = 0.0;
      for (size_t i = 0; i < inst->num_rows; ++i) {
        sum += inst->weight[i] * inst->target[i];
      }
      inst->prior = sum / inst->total_weight;
      break;
    }
    case PriorKind::kZero:
      inst->prior = 0.0;
      break;
    case PriorKind::kConstant:
      inst->prior = options.prior_value;
      break;
  }
}

// \brief Exact (codes, target) -> merged-row map: flat open addressing with
// linear probing over a power-of-two table.
//
// When the per-dimension code widths (from the dictionary sizes) sum to at
// most 64 bits, the codes pack into the key itself and a key match is exact;
// otherwise the key is an FNV hash of the codes and a key match also
// compares the full code vectors. Targets compare bit for bit, so -0.0 and
// +0.0 stay apart; callers keep NaN targets out (NaN never merges).
class RowMerger {
 public:
  // `merged_codes` is the instance's row-major code block, which the caller
  // extends by one row whenever Find hands out a new row.
  RowMerger(const std::vector<size_t>& cardinalities,
            const std::vector<ValueId>* merged_codes)
      : merged_codes_(merged_codes) {
    unsigned total = 0;
    for (size_t cardinality : cardinalities) {
      shifts_.push_back(total);
      total += cardinality > 1 ? static_cast<unsigned>(std::bit_width(cardinality - 1))
                               : 0u;
    }
    packed_ = total <= 64;
  }

  // The merged row already holding (codes, target), or `next_row` after
  // recording that the caller appends the row as merged row `next_row`.
  uint32_t Find(const ValueId* codes, double target, uint32_t next_row) {
    size_t num_dims = shifts_.size();
    uint64_t key = Key(codes);
    uint64_t target_bits;
    std::memcpy(&target_bits, &target, sizeof(target_bits));
    size_t mask = slots_.size() - 1;
    for (size_t i = Hash(key, target_bits) & mask;; i = (i + 1) & mask) {
      Slot& slot = slots_[i];
      if (slot.row == kEmpty) {
        slot = Slot{key, target_bits, next_row};
        if (++size_ * 2 > slots_.size()) Grow();
        return next_row;
      }
      if (slot.key == key && slot.target_bits == target_bits &&
          (packed_ || std::equal(codes, codes + num_dims,
                                 merged_codes_->begin() +
                                     static_cast<std::ptrdiff_t>(slot.row * num_dims)))) {
        return slot.row;
      }
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  struct Slot {
    uint64_t key = 0;
    uint64_t target_bits = 0;
    uint32_t row = kEmpty;
  };

  uint64_t Key(const ValueId* codes) const {
    uint64_t key = 0;
    if (packed_) {
      for (size_t d = 0; d < shifts_.size(); ++d) {
        // A zero-width dimension may sit at shift 64; its code is always 0.
        if (shifts_[d] < 64) key |= static_cast<uint64_t>(codes[d]) << shifts_[d];
      }
      return key;
    }
    Fnv64 fnv;
    for (size_t d = 0; d < shifts_.size(); ++d) {
      fnv.MixWord(static_cast<uint64_t>(codes[d]) + 1);
    }
    return fnv.state;
  }

  static size_t Hash(uint64_t key, uint64_t target_bits) {
    uint64_t h = (key ^ std::rotl(target_bits, 29)) * 0x9E3779B97F4A7C15ULL;
    h ^= h >> 32;
    h *= 0xD6E8FEB86659FD93ULL;
    return static_cast<size_t>(h ^ (h >> 32));
  }

  void Grow() {
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    size_t mask = slots_.size() - 1;
    for (const Slot& slot : old) {
      if (slot.row == kEmpty) continue;
      size_t i = Hash(slot.key, slot.target_bits) & mask;
      while (slots_[i].row != kEmpty) i = (i + 1) & mask;
      slots_[i] = slot;
    }
  }

  const std::vector<ValueId>* merged_codes_;
  std::vector<unsigned> shifts_;
  bool packed_ = true;
  std::vector<Slot> slots_ = std::vector<Slot>(64);
  size_t size_ = 0;
};

}  // namespace

Result<SummaryInstance> BuildInstance(const Table& table,
                                      const PredicateSet& query_predicates,
                                      int target_index,
                                      const InstanceOptions& options) {
  // Validate before the O(rows) filter scan so bad arguments fail cheaply.
  if (target_index < 0 || static_cast<size_t>(target_index) >= table.NumTargets()) {
    return Status::InvalidArgument("target index " + std::to_string(target_index) +
                                   " out of range");
  }
  return BuildInstanceFromRows(table, query_predicates, target_index,
                               FilterRows(table, query_predicates), options);
}

Result<SummaryInstance> BuildInstanceFromRows(const Table& table,
                                              const PredicateSet& query_predicates,
                                              int target_index,
                                              const std::vector<uint32_t>& rows,
                                              const InstanceOptions& options) {
  if (target_index < 0 || static_cast<size_t>(target_index) >= table.NumTargets()) {
    return Status::InvalidArgument("target index " + std::to_string(target_index) +
                                   " out of range");
  }
  SummaryInstance inst;
  inst.target_name = table.TargetName(static_cast<size_t>(target_index));
  inst.target_unit = table.TargetUnit(static_cast<size_t>(target_index));

  // Fact-eligible dimensions: those not fixed by the query.
  std::vector<std::span<const ValueId>> columns;
  for (size_t d = 0; d < table.NumDims(); ++d) {
    bool restricted = false;
    for (const auto& p : query_predicates) {
      if (p.dim == static_cast<int>(d)) {
        restricted = true;
        break;
      }
    }
    if (!restricted) {
      inst.dims.push_back(static_cast<int>(d));
      inst.dim_names.push_back(table.DimName(d));
      inst.dim_cardinalities.push_back(table.dict(d).size());
      columns.push_back(table.DimColumn(d));
    }
  }

  if (rows.empty()) {
    return Status::NotFound("query predicates select no rows");
  }

  std::span<const double> target_column =
      table.TargetColumn(static_cast<size_t>(target_index));

  // Merge rows with identical (codes, target) into weighted rows.
  size_t num_dims = inst.dims.size();
  RowMerger merger(inst.dim_cardinalities, &inst.codes);
  std::vector<ValueId> row_codes(num_dims);
  for (uint32_t r : rows) {
    for (size_t d = 0; d < num_dims; ++d) row_codes[d] = columns[d][r];
    double v = target_column[r];
    uint32_t next_row = static_cast<uint32_t>(inst.num_rows);
    // NaN != NaN: a NaN row never merges, so it skips the map.
    uint32_t merged = std::isnan(v) ? next_row : merger.Find(row_codes.data(), v, next_row);
    if (merged == next_row) {
      inst.codes.insert(inst.codes.end(), row_codes.begin(), row_codes.end());
      inst.target.push_back(v);
      inst.weight.push_back(1.0);
      ++inst.num_rows;
    } else {
      inst.weight[merged] += 1.0;
    }
  }
  inst.total_weight = static_cast<double>(rows.size());

  SetPrior(options, [&] { return GlobalAverage(table, target_index); }, &inst);
  return inst;
}

Result<SummaryInstance> SliceInstance(const SummaryInstance& parent,
                                      const PredicateSet& query_predicates,
                                      const InstanceOptions& options) {
  SummaryInstance inst;
  inst.target_name = parent.target_name;
  inst.target_unit = parent.target_unit;

  // Parent positions the predicates fix (with their codes) and the ones kept.
  std::vector<std::pair<size_t, ValueId>> fixed;
  std::vector<size_t> kept;
  for (size_t pos = 0; pos < parent.dims.size(); ++pos) {
    auto it = std::find_if(query_predicates.begin(), query_predicates.end(),
                           [&](const EqPredicate& p) { return p.dim == parent.dims[pos]; });
    if (it != query_predicates.end()) {
      fixed.emplace_back(pos, it->value);
    } else {
      kept.push_back(pos);
      inst.dims.push_back(parent.dims[pos]);
      inst.dim_names.push_back(parent.dim_names[pos]);
      inst.dim_cardinalities.push_back(parent.dim_cardinalities[pos]);
    }
  }
  if (fixed.size() != query_predicates.size()) {
    return Status::InvalidArgument(
        "a query predicate's dimension is not in the parent instance");
  }

  size_t parent_dims = parent.dims.size();
  for (size_t r = 0; r < parent.num_rows; ++r) {
    const ValueId* row = parent.codes.data() + r * parent_dims;
    size_t k = 0;
    while (k < fixed.size() && row[fixed[k].first] == fixed[k].second) ++k;
    if (k < fixed.size()) continue;
    for (size_t pos : kept) inst.codes.push_back(row[pos]);
    inst.target.push_back(parent.target[r]);
    inst.weight.push_back(parent.weight[r]);
    inst.total_weight += parent.weight[r];
    ++inst.num_rows;
  }
  if (inst.num_rows == 0) {
    return Status::NotFound("query predicates select no rows");
  }

  SetPrior(options, [&] { return parent.prior; }, &inst);
  return inst;
}

}  // namespace vq
