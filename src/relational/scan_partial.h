// Shard-local partial results of a conjunctive filter.
//
// The sharded scan planner answers a filter per shard and merges afterwards;
// ScanPartial is that per-shard unit as a first-class, composable value so
// downstream layers can consume shard results before (or instead of) the
// merge -- perfbench's on-demand replay does, and the planned incremental
// ingest path (ROADMAP item 3) will compose delta-shard partials with main
// ones the same way.
//
// Contract: `rows` holds SHARD-LOCAL row ids, strictly ascending; the global
// id of entry k is `base + rows[k]`. A full result set is a vector of
// partials in ascending shard order covering each shard exactly once; since
// shard row ranges are contiguous and disjoint, concatenating the
// base-offset rows in shard order yields globally ascending ids --
// bit-identical to what the unsharded filter returned.
#ifndef VQ_RELATIONAL_SCAN_PARTIAL_H_
#define VQ_RELATIONAL_SCAN_PARTIAL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace vq {

/// One shard's share of a filter answer (see file comment for the id
/// contract).
struct ScanPartial {
  uint32_t shard = 0;  ///< shard ordinal within the table
  uint32_t base = 0;   ///< first global row id of the shard
  std::vector<uint32_t> rows;  ///< shard-local matching rows, ascending
};

/// A filter answer as per-shard partials, ascending by shard ordinal.
using ScanPartials = std::vector<ScanPartial>;

/// Total matching rows across all partials.
size_t TotalRows(const ScanPartials& partials);

/// Appends `partial`'s rows to `out` as global ids (base + local).
void AppendGlobalRows(const ScanPartial& partial, std::vector<uint32_t>* out);

/// Flattens partials (ascending shard order) into one globally ascending row
/// id vector. Takes the partials by value: the single-shard case -- every
/// pre-existing table -- moves the row vector straight through with no copy.
std::vector<uint32_t> MergeScanPartials(ScanPartials partials);

}  // namespace vq

#endif  // VQ_RELATIONAL_SCAN_PARTIAL_H_
