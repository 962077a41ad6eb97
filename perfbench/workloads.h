// The benchmark's three workloads. Each builds its inputs from the seed,
// measures end-to-end metrics untraced, and with `trace` also replays its
// requests through the layers' public calls for the per-layer metrics.
#ifndef VQ_PERFBENCH_WORKLOADS_H_
#define VQ_PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

/// Closed loop over the full materialized query population of three
/// datasets with a warm answer cache: the paper's run-time lookup path.
Report RunWarmHits(const RunOptions& options);

/// Closed loop of distinct queries outside a small materialized
/// configuration over a two-shard flights table: the on-demand path.
Report RunColdMisses(const RunOptions& options);

/// Repeated AddDataset/RemoveDataset of a 1M-row flights table while an open
/// loop sends warm hits to the three serving datasets.
Report RunOnboardUnderLoad(const RunOptions& options);

/// Per-layer metric names and units, in output order. Every traced run
/// reports each of them (0 where the workload never reaches the layer).
const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics();

}  // namespace perfbench

#endif  // VQ_PERFBENCH_WORKLOADS_H_
