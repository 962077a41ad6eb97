#include "harness.h"

#include <sys/prctl.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "core/summarizer.h"
#include "facts/instance.h"
#include "relational/predicate.h"
#include "serve/answer.h"
#include "speech/speech.h"
#include "storage/datasets.h"
#include "storage/index.h"
#include "util/thread_pool.h"

namespace perfbench {

namespace {

double MicrosBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::micro>(to - from).count();
}

// Keeps results of calls made only to be timed from being discarded.
std::atomic<uint64_t> g_sink{0};

}  // namespace

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  double rank = std::ceil(q * static_cast<double>(values.size()));
  size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(index, values.size() - 1)];
}

double Median(std::vector<double> values) { return Quantile(std::move(values), 0.5); }

LatencySummary SummarizeLatency(const std::vector<double>& values) {
  LatencySummary out;
  out.samples = values.size();
  if (values.empty()) return out;
  double n = static_cast<double>(values.size());
  out.tail_quantile = std::clamp(1.0 - 10.0 / n, 0.5, 0.99);
  std::vector<double> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  auto at = [&](double q) {
    double rank = std::ceil(q * n);
    size_t index = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
    return sorted[std::min(index, sorted.size() - 1)];
  };
  out.p50 = at(0.5);
  out.tail = at(out.tail_quantile);
  return out;
}

vq::obs::HistogramSnapshot HistogramDelta(vq::obs::HistogramSnapshot after,
                                          const vq::obs::HistogramSnapshot& before) {
  after.count -= before.count;
  after.sum_seconds -= before.sum_seconds;
  for (size_t b = 0; b < after.buckets.size() && b < before.buckets.size(); ++b) {
    after.buckets[b] -= before.buckets[b];
  }
  return after;
}

// ------------------------------------------------------------------ tracing

int Tracer::Begin(const char* name, uint32_t request, int parent) {
  double now = MicrosBetween(epoch_, Clock::now());
  spans_.push_back(Span{name, request, parent, now, now});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int span) {
  spans_[static_cast<size_t>(span)].end_us = MicrosBetween(epoch_, Clock::now());
}

std::vector<Tracer::Layer> Tracer::Layers() const {
  std::vector<double> covered(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      covered[static_cast<size_t>(span.parent)] += span.end_us - span.start_us;
    }
  }
  std::vector<Layer> layers;
  std::unordered_map<std::string, size_t> slot;
  std::vector<std::vector<double>> self_times;
  for (size_t i = 0; i < spans_.size(); ++i) {
    auto [it, inserted] = slot.emplace(spans_[i].name, layers.size());
    if (inserted) {
      layers.push_back(Layer{spans_[i].name});
      self_times.emplace_back();
    }
    double self = spans_[i].end_us - spans_[i].start_us - covered[i];
    Layer& layer = layers[it->second];
    ++layer.count;
    layer.self_total_us += self;
    self_times[it->second].push_back(self);
  }
  for (size_t l = 0; l < layers.size(); ++l) {
    layers[l].self_median_us = Median(std::move(self_times[l]));
  }
  return layers;
}

double Tracer::MedianSelfUs(const std::string& name) const {
  for (const Layer& layer : Layers()) {
    if (layer.name == name) return layer.self_median_us;
  }
  return 0.0;
}

double Tracer::MedianRequestUs() const {
  std::vector<double> totals;
  for (const Span& span : spans_) {
    if (span.parent < 0 && std::string(span.name) == "request") {
      totals.push_back(span.end_us - span.start_us);
    }
  }
  return Median(std::move(totals));
}

// ----------------------------------------------------------------- datasets

std::vector<DatasetSpec> ServingDatasets() {
  std::vector<DatasetSpec> specs(3);
  specs[0].name = "flights";
  specs[0].config = FlightsServingConfig();
  specs[1].name = "acs";
  specs[1].config.table = "acs";
  specs[1].config.dimensions = {"borough", "age_group"};
  specs[1].config.targets = {"visual"};
  specs[1].config.max_query_predicates = 2;
  specs[2].name = "primaries";
  specs[2].config.table = "primaries";
  specs[2].config.dimensions = {"candidate", "state_region"};
  specs[2].config.targets = {"vote_share"};
  specs[2].config.max_query_predicates = 2;
  for (DatasetSpec& spec : specs) spec.rows = vq::DefaultRows(spec.config.table) / 4;
  return specs;
}

vq::Configuration FlightsServingConfig() {
  vq::Configuration config;
  config.table = "flights";
  config.dimensions = {"airline", "season", "dest_region"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 2;
  return config;
}

std::string RequestText(const vq::Table& table, const vq::VoiceQuery& query) {
  std::string text = table.TargetName(static_cast<size_t>(query.target_index));
  for (const auto& predicate : query.predicates) {
    text += " ";
    text += table.dict(static_cast<size_t>(predicate.dim)).Lookup(predicate.value);
  }
  // Spoken requests say "vote share", not the identifier "vote_share".
  std::replace(text.begin(), text.end(), '_', ' ');
  return text;
}

vq::serve::RouterOptions BenchRouterOptions(vq::obs::MetricsRegistry* metrics) {
  vq::serve::RouterOptions options;
  options.metrics = metrics;
  options.host.simulated_vocalize_seconds = 0.0;
  return options;
}

std::unique_ptr<ServingStack> BuildServingStack(uint64_t seed) {
  auto stack = std::make_unique<ServingStack>();
  stack->metrics = std::make_unique<vq::obs::MetricsRegistry>();
  vq::serve::RegistryOptions registry_options;
  registry_options.metrics = stack->metrics.get();
  stack->registry = std::make_unique<vq::serve::DatasetRegistry>(registry_options);

  std::vector<DatasetSpec> specs = ServingDatasets();
  std::vector<std::vector<Request>> per_dataset;
  for (const DatasetSpec& spec : specs) {
    Clock::time_point gen_start = Clock::now();
    vq::Result<vq::Table> table = vq::MakeDataset(spec.config.table, spec.rows, seed);
    stack->table_gen_s += SecondsSince(gen_start);
    if (!table.ok()) throw std::runtime_error(table.status().ToString());
    Clock::time_point add_start = Clock::now();
    vq::Status added =
        stack->registry->AddDataset(spec.name, std::move(table).value(), spec.config);
    stack->onboard_s += SecondsSince(add_start);
    if (!added.ok()) throw std::runtime_error(added.ToString());

    const vq::VoiceQueryEngine* engine = stack->registry->engine(spec.name);
    auto generator = vq::ProblemGenerator::Create(&engine->table(), spec.config);
    if (!generator.ok()) throw std::runtime_error(generator.status().ToString());
    std::vector<Request> requests;
    for (const vq::VoiceQuery& query : generator.value().GenerateQueries()) {
      const vq::StoredSpeech* stored = engine->store().FindExact(query);
      if (stored == nullptr) continue;  // empty subset: nothing materialized
      requests.push_back(
          Request{RequestText(engine->table(), query), spec.name, stored->speech.text});
    }
    for (const vq::StoredSpeech& stored : engine->store().speeches()) {
      stack->utility_sum += stored.speech.scaled_utility;
    }
    stack->speeches += engine->store().size();
    per_dataset.push_back(std::move(requests));
  }
  // Round-robin across datasets so consecutive requests hit different hosts.
  for (size_t i = 0;; ++i) {
    bool any = false;
    for (const auto& requests : per_dataset) {
      if (i < requests.size()) {
        stack->requests.push_back(requests[i]);
        any = true;
      }
    }
    if (!any) break;
  }

  stack->router = std::make_unique<vq::serve::RoutingService>(
      stack->registry.get(), BenchRouterOptions(stack->metrics.get()));
  std::vector<std::string> texts;
  for (const Request& request : stack->requests) {
    texts.push_back(request.text);
    (void)stack->router->AnswerNow(request.text);
  }
  (void)ClosedLoop(*stack->router, texts, 60.0, 20 * texts.size(),
                   [](size_t, const vq::serve::RoutedResponse&) { return true; });
  return stack;
}

// -------------------------------------------------------------- load loops

vq::serve::RoutedResponse TimedSubmit(vq::serve::RoutingService& router,
                                      const std::string& text, double* micros) {
  std::string copy = text;
  Clock::time_point sent = Clock::now();
  vq::serve::RoutedResponse response = router.Submit(std::move(copy)).get();
  *micros = MicrosBetween(sent, Clock::now());
  return response;
}

LoopStats ClosedLoop(vq::serve::RoutingService& router,
                     const std::vector<std::string>& texts, double seconds,
                     size_t limit, const CheckFn& check) {
  LoopStats stats;
  Clock::time_point start = Clock::now();
  Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  for (size_t i = 0; i < limit && Clock::now() < end; ++i) {
    size_t index = i % texts.size();
    double micros = 0.0;
    vq::serve::RoutedResponse response = TimedSubmit(router, texts[index], &micros);
    stats.latency_us.push_back(micros);
    stats.done_s.push_back(SecondsSince(start));
    ++stats.attempted;
    if (!check(index, response)) ++stats.failed;
  }
  stats.wall_s = SecondsSince(start);
  return stats;
}

OpenLoop::OpenLoop(vq::serve::RoutingService* router,
                   const std::vector<std::string>* texts, CheckFn check, double rate)
    : router_(router),
      texts_(texts),
      check_(std::move(check)),
      rate_(rate),
      start_(Clock::now()),
      sender_([this] { Run(); }) {}

OpenLoop::~OpenLoop() {
  stop_.store(true);
  if (sender_.joinable()) sender_.join();
}

void OpenLoop::Run() {
  // The default 50 us timer slack would make every sleep_until wake late
  // and charge that to the request's latency.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  for (uint64_t i = 0; !stop_.load(); ++i) {
    Clock::time_point due =
        start_ + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(static_cast<double>(i) / rate_));
    size_t index = i % texts_->size();
    std::string text = (*texts_)[index];
    std::this_thread::sleep_until(due);
    Clock::time_point sent = Clock::now();
    vq::serve::RoutedResponse response = router_->Submit(std::move(text)).get();
    Clock::time_point done = Clock::now();
    stats_.latency_us.push_back(MicrosBetween(due, done));
    stats_.done_s.push_back(std::chrono::duration<double>(done - start_).count());
    stats_.lag_us.push_back(MicrosBetween(due, sent));
    ++stats_.attempted;
    if (!check_(index, response)) ++stats_.failed;
  }
}

LoopStats OpenLoop::Finish() {
  stop_.store(true);
  sender_.join();
  stats_.wall_s = SecondsSince(start_);
  return std::move(stats_);
}

void MergeLoop(const LoopStats& from, LoopStats* into) {
  into->latency_us.insert(into->latency_us.end(), from.latency_us.begin(),
                          from.latency_us.end());
  for (double done : from.done_s) into->done_s.push_back(into->wall_s + done);
  into->lag_us.insert(into->lag_us.end(), from.lag_us.begin(), from.lag_us.end());
  into->attempted += from.attempted;
  into->failed += from.failed;
  into->wall_s += from.wall_s;
}

SliceSummary Slices(const LoopStats& stats, double slice_s) {
  size_t count = std::max<size_t>(1, static_cast<size_t>(stats.wall_s / slice_s));
  std::vector<std::vector<double>> latencies(count);
  for (size_t i = 0; i < stats.done_s.size(); ++i) {
    size_t slice = static_cast<size_t>(stats.done_s[i] / slice_s);
    if (slice < count) latencies[slice].push_back(stats.latency_us[i]);
  }
  std::vector<double> p50s;
  std::vector<double> rates;
  for (std::vector<double>& slice : latencies) {
    rates.push_back(static_cast<double>(slice.size()) / slice_s);
    if (!slice.empty()) p50s.push_back(Median(std::move(slice)));
  }
  SliceSummary out;
  out.slices = count;
  out.p50_us = Median(std::move(p50s));
  out.rate = Median(std::move(rates));
  return out;
}

// ------------------------------------------------------------------ replay

RoutedReplay ReplayRoute(vq::serve::RoutingService& router,
                         const std::vector<vq::serve::EngineHost*>& hosts,
                         const std::string& text, Tracer* tracer, uint32_t request,
                         int parent) {
  RoutedReplay out;
  vq::serve::RoutingService::RouteDecision decision;
  {
    Scope span(tracer, "serve.route", request, parent);
    decision = router.Route(text);
  }
  if (decision.host_index < 0) return out;
  out.host = hosts[static_cast<size_t>(decision.host_index)];
  const vq::VoiceQueryEngine& engine = out.host->engine();
  vq::ClassifiedRequest classified;
  {
    Scope span(tracer, "nlu.classify", request, parent);
    classified = engine.classifier().Classify(text);
  }
  {
    Scope span(tracer, "engine.ground", request, parent);
    out.query = engine.GroundQuery(classified);
  }
  {
    Scope span(tracer, "serve.cache_lookup", request, parent);
    // The router owns its cache as a mutable member; Get (which EngineHost
    // calls) updates LRU order and hit counters, so it is not const.
    auto& cache = const_cast<vq::serve::ShardedSummaryCache&>(router.cache());
    out.cached = cache.Get(vq::serve::CanonicalQueryKey(out.host->fingerprint(), out.query));
  }
  return out;
}

void TraceNluComponents(const std::vector<vq::serve::EngineHost*>& hosts,
                        const vq::serve::EngineHost& host, const std::string& text,
                        Tracer* tracer, uint32_t request) {
  double score = 0.0;
  {
    Scope span(tracer, "nlu.coverage", request);
    for (vq::serve::EngineHost* candidate : hosts) {
      score += candidate->engine().extractor().Coverage(text).Score();
    }
  }
  size_t predicates = 0;
  {
    Scope span(tracer, "nlu.extract", request);
    predicates = host.engine().extractor().Extract(text).predicates.size();
  }
  g_sink.fetch_add(static_cast<uint64_t>(score) + predicates, std::memory_order_relaxed);
}

Solved ReplaySolve(const vq::Table& table, const vq::Configuration& config,
                   const vq::VoiceQuery& query, bool batched,
                   std::map<int, double>* priors, Tracer* tracer, uint32_t request,
                   int parent) {
  Solved out;
  // The options EngineHost and Preprocess derive from the configuration.
  vq::SummarizerOptions options;
  options.max_facts = config.max_facts;
  options.max_fact_dims = config.max_fact_dims;
  options.algorithm = vq::Algorithm::kGreedyOptimized;
  options.instance.prior_kind = config.prior;
  options.instance.prior_value = config.prior_value;

  std::vector<uint32_t> rows;
  {
    Scope span(tracer, "relational.filter", request, parent);
    if (batched) {
      std::vector<const vq::PredicateSet*> sets{&query.predicates};
      std::vector<vq::ScanPartials> partials = vq::FilterRowsMultiPartials(table, sets);
      rows = vq::MergeScanPartials(std::move(partials[0]));
    } else {
      rows = vq::FilterRows(table, query.predicates);
    }
  }
  out.rows = rows.size();
  out.shards = table.index().num_shards();
  if (config.prior == vq::PriorKind::kGlobalAverage) {
    // Split the prior out of the instance build, as EngineHost does: the
    // value is identical, so the instance is too.
    double prior = 0.0;
    auto cached = batched ? priors->find(query.target_index) : priors->end();
    if (cached != priors->end()) {
      prior = cached->second;
    } else {
      Scope span(tracer, "facts.global_average", request, parent);
      prior = vq::GlobalAverage(table, query.target_index);
      if (batched) priors->emplace(query.target_index, prior);
    }
    options.instance.prior_kind = vq::PriorKind::kConstant;
    options.instance.prior_value = prior;
  }

  vq::Result<vq::SummaryInstance> instance = [&] {
    Scope span(tracer, "facts.instance_build", request, parent);
    return vq::BuildInstanceFromRows(table, query.predicates, query.target_index, rows,
                                     options.instance);
  }();
  if (!instance.ok()) return out;
  out.instance_rows = instance.value().num_rows;
  vq::Result<vq::PreparedProblem> prepared = [&] {
    Scope span(tracer, "core.prepare", request, parent);
    return vq::PreparedProblem::FromInstance(std::move(instance).value(), options);
  }();
  if (!prepared.ok()) return out;
  vq::SummaryResult result = [&] {
    Scope span(tracer, "core.solve", request, parent);
    return prepared.value().Run(options);
  }();
  vq::Speech speech = [&] {
    Scope span(tracer, "speech.render", request, parent);
    return vq::RenderSpeech(table, prepared.value().instance(),
                            prepared.value().catalog(), result, query.predicates);
  }();
  out.ok = true;
  out.text = std::move(speech.text);
  out.scaled_utility = speech.scaled_utility;
  out.num_facts = prepared.value().catalog().NumFacts();
  out.counters = result.counters;
  return out;
}

void TracePoolRoundTrips(size_t threads, size_t samples, Tracer* tracer) {
  vq::ThreadPool pool(threads);
  for (size_t i = 0; i < samples / 10; ++i) pool.SubmitTask([] {}).get();
  for (size_t i = 0; i < samples; ++i) {
    Scope span(tracer, "util.pool_roundtrip", static_cast<uint32_t>(i));
    pool.SubmitTask([] {}).get();
  }
}

bool PlansPostings(const vq::Table& table, const vq::PredicateSet& predicates) {
  vq::ScanPlannerOptions planner;
  planner.stats = &vq::GlobalScanStats();
  planner.per_table_stats = true;
  return vq::PlanScan(table, predicates, planner).strategy == vq::ScanStrategy::kPostings;
}

// -------------------------------------------------------------- calibration

namespace {

uint64_t SpinKernel(uint64_t seed) {
  uint64_t x = seed | 1;
  for (int i = 0; i < (1 << 25); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  return x;
}

double TimeSpin(size_t threads) {
  Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([t] {
      g_sink.fetch_add(SpinKernel(t + 1), std::memory_order_relaxed);
    });
  }
  for (std::thread& worker : workers) worker.join();
  return SecondsSince(start) * 1e3;
}

}  // namespace

Calibration CalibrateHost(size_t threads) {
  std::vector<double> one;
  std::vector<double> all;
  for (int rep = 0; rep < 3; ++rep) {
    one.push_back(TimeSpin(1));
    all.push_back(TimeSpin(threads));
  }
  Calibration out;
  out.threads = threads;
  out.spin_1t_ms = Median(one);
  out.parallelism = static_cast<double>(threads) * out.spin_1t_ms / Median(all);
  return out;
}

}  // namespace perfbench
