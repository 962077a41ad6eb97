#include "workloads.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <utility>

#include "engine/preprocessor.h"
#include "storage/datasets.h"
#include "util/rng.h"

namespace perfbench {

namespace {

// setup_s is the median of this many complete set-ups per run.
constexpr int kSetups = 3;

struct SetupTimes {
  std::vector<double> setup_s;
  std::vector<double> table_gen_s;
  std::vector<double> onboard_s;
};

// Builds a workload's stack kSetups times, keeping the last one.
template <typename Build>
auto SetUp(Build build, SetupTimes* times) {
  decltype(build()) stack;
  for (int s = 0; s < kSetups; ++s) {
    stack.reset();
    Clock::time_point start = Clock::now();
    stack = build();
    times->setup_s.push_back(SecondsSince(start));
    times->table_gen_s.push_back(stack->table_gen_s);
    times->onboard_s.push_back(stack->onboard_s);
  }
  return stack;
}

using vq::serve::RoutedResponse;
using vq::serve::RoutingService;
using vq::serve::ServeStatus;

using LayerValues = std::map<std::string, double>;

void EmitLayers(const LayerValues& values, Report* report) {
  for (const auto& [name, unit] : PerLayerMetrics()) {
    auto it = values.find(name);
    report->Layer(name, it == values.end() ? 0.0 : it->second, unit);
  }
}

// Latency and throughput medians are taken over one-second slices.
constexpr double kSliceSeconds = 1.0;

// Prints and reports the end-to-end metrics; returns the reported p50. An
// open loop completes what it is offered, so its throughput is the achieved
// rate over the whole window rather than the median slice.
double EmitEndToEnd(const std::vector<double>& setup_s, const LoopStats& loop,
                    bool closed_loop, const std::vector<double>& onboard_s,
                    double mean_scaled_utility, Report* report) {
  LatencySummary latency = SummarizeLatency(loop.latency_us);
  SliceSummary slices = Slices(loop, kSliceSeconds);
  if (!closed_loop) slices.rate = static_cast<double>(loop.attempted) / loop.wall_s;
  std::printf("latency: %zu samples, p50 %.2f us (median of %zu slices: %.2f us), "
              "p%.1f %.2f us; %.1f req/s\n",
              latency.samples, latency.p50, slices.slices, slices.p50_us,
              latency.tail_quantile * 100.0, latency.tail, slices.rate);
  std::printf("setup_s per set-up:");
  for (double s : setup_s) std::printf(" %.3f", s);
  std::printf("\nonboard_s per onboarding:");
  for (double s : onboard_s) std::printf(" %.3f", s);
  std::printf("\n");
  report->EndToEnd("setup_s", Median(setup_s), "s");
  report->EndToEnd("latency_p50_us", slices.p50_us, "us");
  report->EndToEnd("latency_p99_us", latency.tail, "us");
  report->EndToEnd("throughput_rps", slices.rate, "1/s");
  report->EndToEnd("onboard_s", Median(onboard_s), "s");
  report->EndToEnd("mean_scaled_utility", mean_scaled_utility, "ratio");
  return slices.p50_us;
}

std::vector<vq::serve::EngineHost*> Hosts(const RoutingService& router,
                                          const vq::serve::DatasetRegistry& registry) {
  std::vector<vq::serve::EngineHost*> hosts;
  for (const std::string& name : registry.Names()) {
    vq::serve::EngineHost* host = router.host(name);
    if (host == nullptr) throw std::logic_error("router has no host for " + name);
    hosts.push_back(host);
  }
  return hosts;
}

// Serving-layer counters read from the router's existing instruments.
struct Counters {
  vq::obs::HistogramSnapshot queue_wait;
  vq::obs::HistogramSnapshot snapshot_acquire;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t queries = 0;
  uint64_t coalesced = 0;
  uint64_t summaries = 0;
  uint64_t passes = 0;
};

Counters ReadCounters(const RoutingService& router,
                      const vq::serve::DatasetRegistry& registry) {
  Counters out;
  out.queue_wait = router.metrics()->SnapshotHistogram("vq_router_queue_wait_seconds");
  out.snapshot_acquire =
      router.metrics()->SnapshotHistogram("vq_router_snapshot_acquire_seconds");
  vq::serve::CacheStats cache = router.cache().TotalStats();
  out.cache_hits = cache.hits;
  out.cache_misses = cache.misses;
  for (vq::serve::EngineHost* host : Hosts(router, registry)) {
    vq::serve::HostStats stats = host->stats();
    out.queries += stats.queries;
    out.coalesced += stats.coalesced_waits;
    out.summaries += stats.on_demand_summaries;
    out.passes += stats.on_demand_passes;
  }
  return out;
}

// Adds the counters' movement between `before` and `after` to `window`.
void AddWindow(const Counters& before, const Counters& after, Counters* window) {
  window->queue_wait.Merge(HistogramDelta(after.queue_wait, before.queue_wait));
  window->snapshot_acquire.Merge(
      HistogramDelta(after.snapshot_acquire, before.snapshot_acquire));
  window->cache_hits += after.cache_hits - before.cache_hits;
  window->cache_misses += after.cache_misses - before.cache_misses;
  window->queries += after.queries - before.queries;
  window->coalesced += after.coalesced - before.coalesced;
  window->summaries += after.summaries - before.summaries;
  window->passes += after.passes - before.passes;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

void ServeLayers(const Counters& window, LayerValues* values) {
  (*values)["serve.queue_wait_us"] = window.queue_wait.p50() * 1e6;
  (*values)["serve.snapshot_acquire_us"] = window.snapshot_acquire.p50() * 1e6;
  (*values)["serve.cache_hit_ratio"] =
      Ratio(static_cast<double>(window.cache_hits),
            static_cast<double>(window.cache_hits + window.cache_misses));
  (*values)["serve.batch_size_mean"] =
      Ratio(static_cast<double>(window.summaries), static_cast<double>(window.passes));
  (*values)["serve.coalesced_ratio"] =
      Ratio(static_cast<double>(window.coalesced), static_cast<double>(window.queries));
}

// Copies the tracer's per-layer medians into `values` and prints the
// self time, count and median of every span name.
void TraceLayers(const Tracer& tracer, LayerValues* values) {
  std::printf("%-24s %8s %14s %12s\n", "span", "count", "self total us", "median us");
  for (const Tracer::Layer& layer : tracer.Layers()) {
    std::printf("%-24s %8zu %14.1f %12.3f\n", layer.name.c_str(), layer.count,
                layer.self_total_us, layer.self_median_us);
    if (layer.name != "request") (*values)[layer.name + "_us"] = layer.self_median_us;
  }
}

// Sums the median self times of the blocking steps -- the pool round trip
// every Submit pays, then the replayed calls -- and sets them beside the
// median latency of the requests served between the replayed ones and of
// the untraced run. The replay runs on the caller's thread, so its traced
// request time plus the round trip is the traced latency.
void Accounting(const Tracer& tracer, const std::vector<const char*>& steps,
                const std::vector<double>& served_us, double untraced_p50_us,
                LayerValues* values) {
  double roundtrip = tracer.MedianSelfUs("util.pool_roundtrip");
  double sum = roundtrip;
  std::printf("blocking steps: util.pool_roundtrip %.3f us", roundtrip);
  for (const char* step : steps) {
    double median = tracer.MedianSelfUs(step);
    sum += median;
    std::printf(" + %s %.3f", step, median);
  }
  double served = Median(served_us);
  double traced = roundtrip + tracer.MedianRequestUs();
  std::printf("\n  = %.3f us; served between replays: p50 %.3f us (difference %.3f us); "
              "untraced latency_p50 %.3f us; traced latency %.3f us (x%.3f)\n",
              sum, served, served - sum, untraced_p50_us, traced,
              Ratio(traced, untraced_p50_us));
  (*values)["trace.request_us"] = tracer.MedianRequestUs();
  (*values)["trace.blocking_sum_us"] = sum;
  (*values)["trace.overhead_ratio"] = Ratio(traced, untraced_p50_us);
}

// Averages the replayed problems' counts into per-layer means.
void SolveLayers(const std::vector<Solved>& solved, LayerValues* values) {
  double rows = 0, instance_rows = 0, facts = 0, postings = 0, shards = 0;
  double join = 0, bound = 0, pruned = 0;
  for (const Solved& s : solved) {
    rows += static_cast<double>(s.rows);
    instance_rows += static_cast<double>(s.instance_rows);
    facts += static_cast<double>(s.num_facts);
    postings += s.postings_plan ? 1.0 : 0.0;
    shards += static_cast<double>(s.shards);
    join += static_cast<double>(s.counters.join_rows);
    bound += static_cast<double>(s.counters.bound_rows);
    pruned += static_cast<double>(s.counters.groups_pruned);
  }
  double n = static_cast<double>(solved.size());
  (*values)["relational.rows_per_query"] = Ratio(rows, n);
  (*values)["relational.postings_plan_share"] = Ratio(postings, n);
  (*values)["relational.shards_per_filter"] = Ratio(shards, n);
  (*values)["facts.instance_rows"] = Ratio(instance_rows, n);
  (*values)["core.num_facts"] = Ratio(facts, n);
  (*values)["core.join_row_visits"] = Ratio(join, n);
  (*values)["core.bound_row_visits"] = Ratio(bound, n);
  (*values)["core.groups_pruned"] = Ratio(pruned, n);
}

// Replays the warm population `rounds` times through Route, Classify,
// GroundQuery and the cache lookup, serving each request once more right
// after its replay (timed into `served_us`); the replayed answer, the store
// speech and the served text must all agree. Returns the mismatches.
uint64_t ReplayWarm(RoutingService& router, const vq::serve::DatasetRegistry& registry,
                    const std::vector<Request>& requests, int rounds, Tracer* tracer,
                    std::vector<double>* served_us) {
  std::vector<vq::serve::EngineHost*> hosts = Hosts(router, registry);
  uint64_t mismatched = 0;
  uint32_t id = 0;
  for (int round = 0; round < rounds; ++round) {
    for (const Request& request : requests) {
      RoutedReplay routed;
      {
        Scope root(tracer, "request", id);
        routed = ReplayRoute(router, hosts, request.text, tracer, id, root.id());
      }
      const vq::StoredSpeech* stored = nullptr;
      if (routed.host != nullptr) {
        TraceNluComponents(hosts, *routed.host, request.text, tracer, id);
        // Not on a warm hit's path (the cache answers), but the reference.
        Scope span(tracer, "engine.store_lookup", id);
        stored = routed.host->engine().store().FindExact(routed.query);
      }
      double micros = 0.0;
      RoutedResponse served = TimedSubmit(router, request.text, &micros);
      served_us->push_back(micros);
      bool ok = routed.host != nullptr && routed.host->name() == request.dataset &&
                routed.cached != nullptr && routed.cached->text == request.expected &&
                stored != nullptr && stored->speech.text == request.expected &&
                served.dataset == request.dataset &&
                served.response.text == request.expected;
      if (!ok) ++mismatched;
      ++id;
    }
  }
  return mismatched;
}

CheckFn WarmCheck(const std::vector<Request>* requests) {
  return [requests](size_t index, const RoutedResponse& routed) {
    const Request& request = (*requests)[index];
    return routed.routed && routed.dataset == request.dataset &&
           routed.response.status == ServeStatus::kOk &&
           routed.response.text == request.expected;
  };
}

std::vector<std::string> Texts(const std::vector<Request>& requests) {
  std::vector<std::string> texts;
  for (const Request& request : requests) texts.push_back(request.text);
  return texts;
}

}  // namespace

const std::vector<std::pair<const char*, const char*>>& PerLayerMetrics() {
  static const std::vector<std::pair<const char*, const char*>> kMetrics = {
      {"serve.route_us", "us"},
      {"serve.snapshot_acquire_us", "us"},
      {"serve.queue_wait_us", "us"},
      {"serve.cache_lookup_us", "us"},
      {"serve.cache_hit_ratio", "ratio"},
      {"serve.batch_size_mean", "count"},
      {"serve.coalesced_ratio", "ratio"},
      {"nlu.classify_us", "us"},
      {"nlu.coverage_us", "us"},
      {"nlu.extract_us", "us"},
      {"engine.ground_us", "us"},
      {"engine.store_lookup_us", "us"},
      {"engine.preprocess_s", "s"},
      {"query.generate_ms", "ms"},
      {"storage.index_build_ms", "ms"},
      {"storage.table_gen_s", "s"},
      {"relational.filter_us", "us"},
      {"relational.rows_per_query", "count"},
      {"relational.postings_plan_share", "ratio"},
      {"relational.shards_per_filter", "count"},
      {"facts.global_average_us", "us"},
      {"facts.instance_build_us", "us"},
      {"facts.instance_rows", "count"},
      {"core.prepare_us", "us"},
      {"core.num_facts", "count"},
      {"core.solve_us", "us"},
      {"core.join_row_visits", "count"},
      {"core.bound_row_visits", "count"},
      {"core.groups_pruned", "count"},
      {"speech.render_us", "us"},
      {"loadgen.lag_p99_us", "us"},
      {"host.spin_1t_ms", "ms"},
      {"host.parallelism", "ratio"},
      {"util.simd_table", "index"},
      {"util.pool_roundtrip_us", "us"},
      {"trace.request_us", "us"},
      {"trace.blocking_sum_us", "us"},
      {"trace.overhead_ratio", "ratio"},
  };
  return kMetrics;
}

// ----------------------------------------------------------------- warm_hits

Report RunWarmHits(const RunOptions& options) {
  SetupTimes times;
  auto stack = SetUp([&] { return BuildServingStack(options.seed); }, &times);
  RoutingService& router = *stack->router;
  std::printf("warm_hits: %zu distinct requests over 3 datasets\n",
              stack->requests.size());

  std::vector<std::string> texts = Texts(stack->requests);
  Counters before = ReadCounters(router, *stack->registry);
  LoopStats loop = ClosedLoop(router, texts, options.seconds,
                              std::numeric_limits<size_t>::max(),
                              WarmCheck(&stack->requests));
  Counters window;
  AddWindow(before, ReadCounters(router, *stack->registry), &window);

  Report report;
  report.attempted = loop.attempted;
  report.failed = loop.failed;
  double p50_us = EmitEndToEnd(times.setup_s, loop, /*closed_loop=*/true,
                               times.onboard_s,
                               Ratio(stack->utility_sum, static_cast<double>(stack->speeches)),
                               &report);
  if (!options.trace) return report;

  LayerValues values;
  ServeLayers(window, &values);
  values["storage.table_gen_s"] = Median(times.table_gen_s);
  Tracer tracer;
  std::vector<double> served_us;
  uint64_t mismatched =
      ReplayWarm(router, *stack->registry, stack->requests, 20, &tracer, &served_us);
  report.attempted += served_us.size();
  report.failed += mismatched;
  TracePoolRoundTrips(BenchRouterOptions(nullptr).num_threads, 20000, &tracer);
  TraceLayers(tracer, &values);
  Accounting(tracer, {"serve.route", "nlu.classify", "engine.ground", "serve.cache_lookup"},
             served_us, p50_us, &values);
  EmitLayers(values, &report);
  return report;
}

// --------------------------------------------------------------- cold_misses

namespace {

// Two full shards of the default ~2^20-row shard size.
constexpr size_t kColdRows = size_t{1} << 21;

struct MissQuery {
  vq::VoiceQuery query;
  std::string text;
};

// The materialized configuration is deliberately small: airline only.
vq::Configuration ColdConfig() {
  vq::Configuration config;
  config.table = "flights";
  config.dimensions = {"airline"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 2;
  return config;
}

// Every origin_state x {month, time_of_day} query, for both targets: two
// predicates on dimensions outside the configuration, so none can be in the
// store, over subsets of a few thousand rows. (Single predicates on the small
// dimensions select a quarter of the table and cost hundreds of milliseconds
// each; they would turn the loop into a handful of samples.) The population
// is small enough for several full passes per run.
std::vector<MissQuery> MissPopulation(const vq::Table& table) {
  const int state = table.DimIndex("origin_state");
  std::vector<vq::PredicateSet> sets;
  for (const char* other : {"month", "time_of_day"}) {
    const int dim = table.DimIndex(other);
    for (size_t s = 0; s < table.dict(static_cast<size_t>(state)).size(); ++s) {
      for (size_t v = 0; v < table.dict(static_cast<size_t>(dim)).size(); ++v) {
        vq::PredicateSet set{{state, static_cast<vq::ValueId>(s)},
                             {dim, static_cast<vq::ValueId>(v)}};
        if (!vq::NormalizePredicates(&set).ok()) throw std::logic_error("bad predicates");
        sets.push_back(std::move(set));
      }
    }
  }
  std::vector<MissQuery> out;
  for (size_t target = 0; target < table.NumTargets(); ++target) {
    for (const vq::PredicateSet& set : sets) {
      MissQuery miss;
      miss.query.target_index = static_cast<int>(target);
      miss.query.predicates = set;
      miss.text = RequestText(table, miss.query);
      out.push_back(std::move(miss));
    }
  }
  return out;
}

// Airline x month queries: on-demand too, but disjoint from the timed
// population. They warm each fresh router (per-target prior, batch queues,
// scan pool) before its timed pass.
std::vector<std::string> ColdWarmupTexts(const vq::Table& table) {
  std::vector<std::string> texts;
  const int airline = table.DimIndex("airline");
  const int month = table.DimIndex("month");
  for (size_t target = 0; target < table.NumTargets(); ++target) {
    for (vq::ValueId v = 0; v < 2; ++v) {
      vq::VoiceQuery query;
      query.target_index = static_cast<int>(target);
      query.predicates = {{airline, v}, {month, v}};
      texts.push_back(RequestText(table, query));
    }
  }
  return texts;
}

struct ColdStack {
  std::unique_ptr<vq::obs::MetricsRegistry> metrics;
  std::unique_ptr<vq::serve::DatasetRegistry> registry;
  std::unique_ptr<RoutingService> router;
  std::vector<MissQuery> misses;
  std::vector<std::string> warmup;
  double table_gen_s = 0.0;
  double onboard_s = 0.0;

  const vq::VoiceQueryEngine& engine() const { return *registry->engine("flights"); }

  // A router with an empty cache, warmed on the disjoint warm-up queries.
  void FreshRouter() {
    router.reset();
    router = std::make_unique<RoutingService>(registry.get(),
                                              BenchRouterOptions(metrics.get()));
    for (const std::string& text : warmup) (void)router->AnswerNow(text);
  }
};

std::unique_ptr<ColdStack> BuildColdStack(uint64_t seed) {
  auto stack = std::make_unique<ColdStack>();
  stack->metrics = std::make_unique<vq::obs::MetricsRegistry>();
  vq::serve::RegistryOptions registry_options;
  registry_options.metrics = stack->metrics.get();
  stack->registry = std::make_unique<vq::serve::DatasetRegistry>(registry_options);
  Clock::time_point gen_start = Clock::now();
  vq::Result<vq::Table> table = vq::MakeDataset("flights", kColdRows, seed);
  stack->table_gen_s = SecondsSince(gen_start);
  if (!table.ok()) throw std::runtime_error(table.status().ToString());
  Clock::time_point add_start = Clock::now();
  vq::Status added =
      stack->registry->AddDataset("flights", std::move(table).value(), ColdConfig());
  stack->onboard_s = SecondsSince(add_start);
  if (!added.ok()) throw std::runtime_error(added.ToString());
  const vq::Table& served = stack->engine().table();
  stack->misses = MissPopulation(served);
  vq::Rng rng(seed);
  rng.Shuffle(&stack->misses);
  stack->warmup = ColdWarmupTexts(served);
  stack->FreshRouter();
  return stack;
}

// What the closed loop saw for one distinct query.
struct Served {
  std::string text;
  uint64_t count = 0;
  bool inconsistent = false;  ///< two serves of the query disagreed
};

}  // namespace

Report RunColdMisses(const RunOptions& options) {
  SetupTimes times;
  auto stack = SetUp([&] { return BuildColdStack(options.seed); }, &times);
  const std::vector<MissQuery>& misses = stack->misses;
  std::printf("cold_misses: %zu distinct on-demand queries over %zu rows\n",
              misses.size(), stack->engine().table().NumRows());

  std::vector<std::string> texts;
  for (const MissQuery& miss : misses) texts.push_back(miss.text);
  std::vector<Served> served(misses.size());
  // Each pass sends every query at most once, and passes do not overlap, so
  // one client at a time owns a slot.
  CheckFn check = [&served](size_t index, const RoutedResponse& routed) {
    bool ok = routed.routed && routed.dataset == "flights" &&
              routed.response.status == ServeStatus::kOk && routed.response.answered &&
              !routed.response.cache_hit &&
              routed.response.source == vq::serve::AnswerSource::kOnDemand;
    if (!ok) return false;
    Served& slot = served[index];
    if (slot.count++ == 0) {
      slot.text = routed.response.text;
    } else if (slot.text != routed.response.text) {
      slot.inconsistent = true;
    }
    return true;
  };

  // Passes over the shuffled population, each against a fresh router built
  // outside the timed window, so no query is ever in the cache when sent.
  LoopStats loop;
  Counters window;
  size_t passes = 0;
  for (double remaining = options.seconds; remaining > 0.0; ++passes) {
    if (passes > 0) stack->FreshRouter();
    Counters before = ReadCounters(*stack->router, *stack->registry);
    LoopStats pass = ClosedLoop(*stack->router, texts, remaining, texts.size(), check);
    AddWindow(before, ReadCounters(*stack->router, *stack->registry), &window);
    MergeLoop(pass, &loop);
    remaining -= pass.wall_s;
  }
  std::printf("%zu passes\n", passes);

  // Oracle: every distinct query through the on-demand pipeline, grounded
  // from its text by a router with an empty cache. Traced, the same replay
  // records the spans.
  stack->FreshRouter();
  const vq::VoiceQueryEngine& engine = stack->engine();
  std::vector<vq::serve::EngineHost*> hosts = Hosts(*stack->router, *stack->registry);
  std::vector<Solved> solved(misses.size());
  std::vector<char> grounded(misses.size(), 0);
  Report report;
  Tracer tracer;
  Tracer* trace = options.trace ? &tracer : nullptr;
  std::vector<double> served_us;
  std::map<int, double> priors;
  for (size_t i = 0; i < misses.size(); ++i) {
    uint32_t id = static_cast<uint32_t>(i);
    RoutedReplay routed;
    {
      Scope root(trace, "request", id);
      routed = ReplayRoute(*stack->router, hosts, misses[i].text, trace, id, root.id());
      const vq::StoredSpeech* stored = nullptr;
      {
        Scope span(trace, "engine.store_lookup", id, root.id());
        stored = engine.store().FindExact(routed.query);
      }
      grounded[i] = routed.host != nullptr && routed.cached == nullptr &&
                    stored == nullptr && routed.query.Key() == misses[i].query.Key();
      solved[i] = ReplaySolve(engine.table(), engine.config(), misses[i].query,
                              /*batched=*/true, &priors, trace, id, root.id());
    }
    if (trace != nullptr && routed.host != nullptr) {
      TraceNluComponents(hosts, *routed.host, misses[i].text, trace, id);
      solved[i].postings_plan = PlansPostings(engine.table(), misses[i].query.predicates);
      // Served once more right after its replay: the router's cache does not
      // hold the query yet, so this is an on-demand answer too.
      double micros = 0.0;
      RoutedResponse response = TimedSubmit(*stack->router, misses[i].text, &micros);
      served_us.push_back(micros);
      ++report.attempted;
      if (response.response.text != solved[i].text) ++report.failed;
    }
  }

  report.attempted += loop.attempted;
  report.failed += loop.failed;
  double utility_sum = 0.0;
  for (size_t i = 0; i < misses.size(); ++i) {
    bool agrees = grounded[i] && solved[i].ok && !served[i].inconsistent &&
                  served[i].text == solved[i].text;
    if (!agrees && served[i].count > 0) report.failed += served[i].count;
    utility_sum += solved[i].scaled_utility;
  }
  double p50_us =
      EmitEndToEnd(times.setup_s, loop, /*closed_loop=*/true, times.onboard_s,
                   utility_sum / static_cast<double>(misses.size()), &report);
  if (!options.trace) return report;

  LayerValues values;
  ServeLayers(window, &values);
  values["storage.table_gen_s"] = Median(times.table_gen_s);
  TracePoolRoundTrips(BenchRouterOptions(nullptr).num_threads, 20000, &tracer);
  TraceLayers(tracer, &values);
  SolveLayers(solved, &values);
  Accounting(tracer,
             {"serve.route", "nlu.classify", "engine.ground", "serve.cache_lookup",
              "engine.store_lookup", "relational.filter", "facts.instance_build",
              "core.prepare", "core.solve", "speech.render"},
             served_us, p50_us, &values);
  EmitLayers(values, &report);
  return report;
}

// -------------------------------------------------------- onboard_under_load

namespace {

constexpr size_t kOnboardRows = 1000000;
constexpr double kOfferedRate = 2000.0;  // open-loop requests per second
constexpr size_t kProbes = 3;
const char* const kOnboardName = "flights_onboard";

struct Probe {
  std::string text;
  std::string expected;
};

struct OnboardStack {
  std::unique_ptr<ServingStack> serving;
  vq::Table table{"flights"};  ///< pre-generated; copied for every AddDataset
  std::vector<Probe> probes;
  double table_gen_s = 0.0;
  double onboard_s = 0.0;  ///< the serving datasets' registrations
};

std::unique_ptr<OnboardStack> BuildOnboardStack(uint64_t seed) {
  auto stack = std::make_unique<OnboardStack>();
  stack->serving = BuildServingStack(seed);
  stack->onboard_s = stack->serving->onboard_s;
  Clock::time_point gen_start = Clock::now();
  vq::Result<vq::Table> table = vq::MakeDataset("flights", kOnboardRows, seed + 1);
  stack->table_gen_s = stack->serving->table_gen_s + SecondsSince(gen_start);
  if (!table.ok()) throw std::runtime_error(table.status().ToString());
  stack->table = std::move(table).value();
  // Probe references come from the on-demand pipeline over the same rows;
  // the stored speeches pre-processing makes must render the same text.
  vq::Configuration config = FlightsServingConfig();
  auto generator = vq::ProblemGenerator::Create(&stack->table, config);
  if (!generator.ok()) throw std::runtime_error(generator.status().ToString());
  std::vector<vq::VoiceQuery> queries = generator.value().GenerateQueries();
  vq::Rng rng(seed);
  rng.Shuffle(&queries);
  std::map<int, double> priors;
  for (const vq::VoiceQuery& query : queries) {
    if (stack->probes.size() == kProbes) break;
    Solved solved = ReplaySolve(stack->table, config, query, /*batched=*/false, &priors,
                                nullptr, 0, -1);
    if (solved.ok) {
      stack->probes.push_back(Probe{RequestText(stack->table, query), solved.text});
    }
  }
  return stack;
}

double StoredUtilitySum(const vq::VoiceQueryEngine& engine) {
  double sum = 0.0;
  for (const vq::StoredSpeech& stored : engine.store().speeches()) {
    sum += stored.speech.scaled_utility;
  }
  return sum;
}

}  // namespace

Report RunOnboardUnderLoad(const RunOptions& options) {
  SetupTimes times;
  auto stack = SetUp([&] { return BuildOnboardStack(options.seed); }, &times);
  ServingStack& serving = *stack->serving;
  RoutingService& router = *serving.router;
  vq::serve::DatasetRegistry& registry = *serving.registry;
  const vq::Configuration config = FlightsServingConfig();
  std::printf("onboard_under_load: %zu-row flights onboarded while an open loop offers "
              "%.0f warm req/s\n",
              stack->table.NumRows(), kOfferedRate);

  std::vector<std::string> texts = Texts(serving.requests);
  Counters before = ReadCounters(router, registry);
  OpenLoop open(&router, &texts, WarmCheck(&serving.requests), kOfferedRate);
  std::vector<double> onboard_s;
  uint64_t onboard_failed = 0;
  // Scaled utility over every stored speech of the workload's engines: the
  // three serving datasets plus the onboarded one, which must store the
  // same speeches in every cycle.
  double onboarded_sum = -1.0;
  size_t onboarded_speeches = 0;
  Clock::time_point start = Clock::now();
  while (onboard_s.empty() || SecondsSince(start) < options.seconds) {
    vq::Table copy = stack->table;  // a fresh table: no index yet
    Clock::time_point add_start = Clock::now();
    vq::Status added = registry.AddDataset(kOnboardName, std::move(copy), config);
    onboard_s.push_back(SecondsSince(add_start));
    bool ok = added.ok();
    if (ok) {
      router.SyncRegistry();
      vq::serve::EngineHost* host = router.host(kOnboardName);
      ok = host != nullptr;
      for (const Probe& probe : stack->probes) {
        if (!ok) break;
        vq::serve::ServeResponse response = host->Handle(probe.text);
        ok = response.status == ServeStatus::kOk && response.text == probe.expected;
      }
      const vq::VoiceQueryEngine& engine = *registry.engine(kOnboardName);
      double sum = StoredUtilitySum(engine);
      if (onboarded_sum < 0.0) {
        onboarded_sum = sum;
        onboarded_speeches = engine.store().size();
      }
      ok = ok && sum == onboarded_sum && engine.store().size() == onboarded_speeches;
      ok = registry.RemoveDataset(kOnboardName).ok() && ok;
      router.SyncRegistry();
    }
    if (!ok) ++onboard_failed;
  }
  LoopStats loop = open.Finish();
  Counters window;
  AddWindow(before, ReadCounters(router, registry), &window);

  Report report;
  report.attempted = loop.attempted + onboard_s.size();
  report.failed = loop.failed + onboard_failed;
  double utility = Ratio(serving.utility_sum + std::max(onboarded_sum, 0.0),
                         static_cast<double>(serving.speeches + onboarded_speeches));
  EmitEndToEnd(times.setup_s, loop, /*closed_loop=*/false, onboard_s, utility, &report);
  LatencySummary lag = SummarizeLatency(loop.lag_us);
  std::printf("load generator lag: p50 %.2f us, p%.1f %.2f us\n", lag.p50,
              lag.tail_quantile * 100.0, lag.tail);
  if (!options.trace) return report;

  LayerValues values;
  ServeLayers(window, &values);
  values["loadgen.lag_p99_us"] = lag.tail;
  values["storage.table_gen_s"] = Median(times.table_gen_s);
  // The stages of one onboarding, timed one at a time on fresh copies.
  {
    vq::Table copy = stack->table;
    Clock::time_point index_start = Clock::now();
    (void)copy.index();
    values["storage.index_build_ms"] = SecondsSince(index_start) * 1e3;
  }
  std::vector<vq::VoiceQuery> queries;
  {
    Clock::time_point generate_start = Clock::now();
    auto generator = vq::ProblemGenerator::Create(&stack->table, config);
    if (!generator.ok()) throw std::runtime_error(generator.status().ToString());
    queries = generator.value().GenerateQueries();
    values["query.generate_ms"] = SecondsSince(generate_start) * 1e3;
  }
  vq::Table copy = stack->table;
  Clock::time_point preprocess_start = Clock::now();
  vq::Result<vq::SpeechStore> store = vq::Preprocess(copy, config, {});
  values["engine.preprocess_s"] = SecondsSince(preprocess_start);
  if (!store.ok()) throw std::runtime_error(store.status().ToString());
  // Every generated problem through the split pipeline (per-query prior, as
  // pre-processing computes it); each text must equal the stored speech.
  Tracer tracer;
  std::vector<Solved> solved;
  std::map<int, double> priors;
  for (size_t i = 0; i < queries.size(); ++i) {
    uint32_t id = static_cast<uint32_t>(i);
    Solved one;
    {
      Scope root(&tracer, "request", id);
      one = ReplaySolve(copy, config, queries[i], /*batched=*/false, &priors, &tracer, id,
                        root.id());
    }
    one.postings_plan = PlansPostings(copy, queries[i].predicates);
    const vq::StoredSpeech* stored = store.value().FindExact(queries[i]);
    if ((stored != nullptr) != one.ok || (stored != nullptr && stored->speech.text != one.text)) {
      ++report.failed;
    }
    ++report.attempted;
    if (one.ok) solved.push_back(std::move(one));
  }
  TraceLayers(tracer, &values);
  SolveLayers(solved, &values);
  double stages_s = 0.0;
  for (const Tracer::Layer& layer : tracer.Layers()) stages_s += layer.self_total_us * 1e-6;
  std::printf("onboarding: median onboard_s %.3f s; preprocess %.3f s; index build "
              "%.1f ms + generate %.1f ms + replayed stages %.3f s over %zu queries\n",
              Median(onboard_s), values["engine.preprocess_s"],
              values["storage.index_build_ms"], values["query.generate_ms"], stages_s,
              queries.size());
  EmitLayers(values, &report);
  return report;
}

}  // namespace perfbench
