// Shared pieces of the voice-query benchmark: result and latency summaries,
// the in-memory span recorder of the traced run, the serving stack the
// workloads drive, the closed- and open-loop load generators and the replay
// of the serving path through the engine's public calls.
#ifndef VQ_PERFBENCH_HARNESS_H_
#define VQ_PERFBENCH_HARNESS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "obs/metrics.h"
#include "query/config.h"
#include "query/problem_generator.h"
#include "relational/scan_planner.h"
#include "serve/engine_host.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "storage/table.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `failed` counts requests (or onboardings)
/// whose answer disagreed with the reference; any failure fails the run.
struct Report {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;

  void EndToEnd(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Nearest-rank quantile of `values` (0 when empty).
double Quantile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Median and the highest percentile that still has at least ten samples
/// beyond it (p99 from 1000 samples on).
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_quantile = 0.0;
};
LatencySummary SummarizeLatency(const std::vector<double>& values);

/// Percentiles of a router histogram over the window between two snapshots.
vq::obs::HistogramSnapshot HistogramDelta(vq::obs::HistogramSnapshot after,
                                          const vq::obs::HistogramSnapshot& before);

// ------------------------------------------------------------------ tracing

/// \brief In-memory spans around the benchmark's calls into each layer.
///
/// Spans of one replayed request share its id; a span's self time is its
/// duration minus the part its child spans cover. Spans whose parent is -1
/// are roots: "request" roots carry the blocking steps of one request as
/// children, other roots time a component call made beside the request.
class Tracer {
 public:
  int Begin(const char* name, uint32_t request, int parent);
  void End(int span);

  struct Layer {
    std::string name;
    size_t count = 0;
    double self_total_us = 0.0;
    double self_median_us = 0.0;
  };
  /// Per span name, in first-seen order.
  std::vector<Layer> Layers() const;
  /// Median self time of `name` (0 when it never ran).
  double MedianSelfUs(const std::string& name) const;
  /// Median total duration of the "request" roots.
  double MedianRequestUs() const;

 private:
  struct Span {
    const char* name;
    uint32_t request;
    int parent;
    double start_us;
    double end_us;
  };
  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a no-op when the tracer is null (the untraced oracle replay
/// runs the same code).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint32_t request, int parent = -1)
      : tracer_(tracer),
        id_(tracer != nullptr ? tracer->Begin(name, request, parent) : -1) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

// ----------------------------------------------------------------- datasets

struct DatasetSpec {
  std::string name;
  vq::Configuration config;
  size_t rows = 0;
};

/// The three serving datasets of the router bench (flights, acs,
/// primaries) at its bench scale: a quarter of each generator's default rows.
std::vector<DatasetSpec> ServingDatasets();

/// The router bench's flights configuration (151 queries on flights).
vq::Configuration FlightsServingConfig();

/// Spoken form of `query`: the target name followed by its predicate values.
std::string RequestText(const vq::Table& table, const vq::VoiceQuery& query);

/// One warm request and the answer it must get.
struct Request {
  std::string text;
  std::string dataset;
  std::string expected;
};

/// Three datasets registered behind one router with vocalization off.
/// Members are destroyed bottom-up: the router before the registry it
/// serves, both before the metrics they report into.
struct ServingStack {
  std::unique_ptr<vq::obs::MetricsRegistry> metrics;
  std::unique_ptr<vq::serve::DatasetRegistry> registry;
  std::unique_ptr<vq::serve::RoutingService> router;
  /// The full materialized query population, interleaved across datasets.
  std::vector<Request> requests;
  double table_gen_s = 0.0;
  double onboard_s = 0.0;        ///< summed AddDataset time of the three
  double utility_sum = 0.0;  ///< scaled utility summed over every stored speech
  size_t speeches = 0;
};

/// Builds tables, registers them, builds the router and warms its cache
/// with every request once plus a short closed loop.
std::unique_ptr<ServingStack> BuildServingStack(uint64_t seed);

/// Default router options with vocalization off and private metrics.
vq::serve::RouterOptions BenchRouterOptions(vq::obs::MetricsRegistry* metrics);

// -------------------------------------------------------------- load loops

/// Submit(...).get() timed from the caller's clock.
vq::serve::RoutedResponse TimedSubmit(vq::serve::RoutingService& router,
                                      const std::string& text, double* micros);

using CheckFn = std::function<bool(size_t index, const vq::serve::RoutedResponse&)>;

struct LoopStats {
  std::vector<double> latency_us;
  std::vector<double> done_s;  ///< completion time since the loop started
  std::vector<double> lag_us;  ///< open loop: send time minus due time
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
};

/// Appends `from` to `into`, continuing its timeline.
void MergeLoop(const LoopStats& from, LoopStats* into);

/// Medians over the run's whole `slice_s`-second slices of each slice's
/// median latency and completion rate. The host's speed shifts from moment
/// to moment; the median slice is steadier than one figure over the run.
struct SliceSummary {
  size_t slices = 0;
  double p50_us = 0.0;
  double rate = 0.0;
};
SliceSummary Slices(const LoopStats& stats, double slice_s);

/// Closed loop of one client on the calling thread: Submit(...).get() one
/// request at a time, cycling through `texts`, until `seconds` elapsed or
/// `limit` requests were sent. `check` judges each response by its index.
LoopStats ClosedLoop(vq::serve::RoutingService& router,
                     const std::vector<std::string>& texts, double seconds,
                     size_t limit, const CheckFn& check);

/// Open loop: a sender thread sends texts on a fixed schedule of `rate`
/// requests per second, each timed from when it was due, until Finish().
class OpenLoop {
 public:
  OpenLoop(vq::serve::RoutingService* router, const std::vector<std::string>* texts,
           CheckFn check, double rate);
  ~OpenLoop();
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  /// Stops the sender, joins it and returns its stats.
  LoopStats Finish();

 private:
  void Run();

  vq::serve::RoutingService* router_;
  const std::vector<std::string>* texts_;
  CheckFn check_;
  double rate_;
  Clock::time_point start_;
  std::atomic<bool> stop_{false};
  LoopStats stats_;
  // Declared last: the sender reads every member above.
  std::thread sender_;
};

// ------------------------------------------------------------------ replay

/// The routing half of a request, through the calls RoutingService and
/// EngineHost make: Route, then Classify, GroundQuery and the cache lookup.
struct RoutedReplay {
  vq::serve::EngineHost* host = nullptr;
  vq::VoiceQuery query;
  vq::serve::ServedAnswerPtr cached;
};
/// `hosts` are the router's hosts in registration order (Route's index).
RoutedReplay ReplayRoute(vq::serve::RoutingService& router,
                         const std::vector<vq::serve::EngineHost*>& hosts,
                         const std::string& text, Tracer* tracer,
                         uint32_t request, int parent);

/// Times, beside a request, the NLU calls inside the ones ReplayRoute makes:
/// Coverage summed over every dataset (what Route walks) and the winning
/// host's Extract (what Classify runs).
void TraceNluComponents(const std::vector<vq::serve::EngineHost*>& hosts,
                        const vq::serve::EngineHost& host, const std::string& text,
                        Tracer* tracer, uint32_t request);

/// Per-problem counts of one replayed summarization.
struct Solved {
  bool ok = false;
  std::string text;
  double scaled_utility = 0.0;
  size_t rows = 0;           ///< rows the filter returned
  size_t instance_rows = 0;  ///< merged instance rows
  size_t num_facts = 0;      ///< candidate facts in the catalog
  bool postings_plan = false;  ///< set by the caller, see PlansPostings
  size_t shards = 0;
  vq::PerfCounters counters;
};

/// Summarizes `query` the way the engine does: filter, global-average prior,
/// instance build, catalog and evaluator, G-O solve, render. `batched`
/// filters through the serving layer's batch call (FilterRowsMultiPartials)
/// and takes the prior from `priors` (one computation per target, as
/// EngineHost caches it); otherwise it filters through FilterRows and
/// computes the prior per query, as pre-processing does.
Solved ReplaySolve(const vq::Table& table, const vq::Configuration& config,
                   const vq::VoiceQuery& query, bool batched,
                   std::map<int, double>* priors, Tracer* tracer,
                   uint32_t request, int parent);

/// Whether the filter funnel's planner (FilterRows' options) answers
/// `predicates` from posting lists rather than a column scan.
bool PlansPostings(const vq::Table& table, const vq::PredicateSet& predicates);

/// Records `samples` round trips of an empty task through a thread pool
/// sized like the router's (SubmitTask(...).get()) as "util.pool_roundtrip"
/// spans: the hand-off to a worker and back that every Submit pays.
void TracePoolRoundTrips(size_t threads, size_t samples, Tracer* tracer);

/// Fixed integer spin kernel for host calibration: milliseconds for one
/// thread, and effective parallelism when `threads` run it at once.
struct Calibration {
  double spin_1t_ms = 0.0;
  double parallelism = 0.0;
  size_t threads = 0;
};
Calibration CalibrateHost(size_t threads);

}  // namespace perfbench

#endif  // VQ_PERFBENCH_HARNESS_H_
