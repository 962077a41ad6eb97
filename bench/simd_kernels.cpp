// SIMD kernel layer micro-bench + end-to-end deltas.
//
// (1) Per-kernel ns per 64-row block, scalar vs EVERY vector table in
// AllImplementations() (median and min/max speedup over interleaved rounds,
// plus which variant each table's slot holds), over arrays shaped like the
// real evaluator inputs (the flights instance the scan bench uses: ~12k
// merged rows, ~1.6k facts, CSR scope segments of realistic lengths); (2)
// end-to-end greedy
// solve time under both tables, with selected facts and PerfCounters
// verified identical (the counters serialize through
// PerfCounters::ForEachField -- the shared serialization contract); (3)
// routed qps at 4 threads against the BENCH_router.json baseline, proving
// the kernel layer does not regress the serving fleet.
//
// Emits BENCH_simd.json (override with VQ_BENCH_OUT). Exits non-zero when
// greedy facts or counters diverge, when a vector dispatch regresses routed
// qps by more than 15%, or when an avx2 dispatch has its weighted-deviation
// or single-fact-utility kernels under 2x or greedy not improving. On
// machines whose dispatch resolves to scalar (no AVX2, or VQ_FORCE_SCALAR)
// the speedup gates are skipped: there is nothing to compare.
//
// bench/check_bench_regression.py (cmake target check_simd_regression)
// diffs the end_to_end numbers of a rerun against the checked-in baseline.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/summarizer.h"
#include "serve/registry.h"
#include "serve/router.h"
#include "util/json.h"
#include "util/simd.h"
#include "util/stats.h"
#include "util/stopwatch.h"
#include "util/table_printer.h"

namespace {

/// Microseconds per call of `fn`: min of 3 repetitions of a ~20ms budget
/// (min-of-reps shields the table from scheduler noise on shared hosts).
template <typename Fn>
double MicrosPerCall(Fn&& fn, size_t min_reps = 16) {
  double best = 1e100;
  for (int repeat = 0; repeat < 3; ++repeat) {
    vq::Stopwatch watch;
    size_t reps = 0;
    do {
      for (size_t i = 0; i < min_reps; ++i) fn();
      reps += min_reps;
    } while (watch.ElapsedSeconds() < 0.02);
    best = std::min(best, watch.ElapsedSeconds() * 1e6 / static_cast<double>(reps));
  }
  return best;
}

std::string RequestText(const vq::Table& table, const vq::VoiceQuery& query) {
  std::string text = table.TargetName(static_cast<size_t>(query.target_index));
  for (const auto& predicate : query.predicates) {
    text += " ";
    text += table.dict(static_cast<size_t>(predicate.dim)).Lookup(predicate.value);
  }
  for (char& c : text) {
    if (c == '_') c = ' ';
  }
  return text;
}

/// One kernel slot timed under one vector table, as medians over
/// kRounds interleaved rounds (scalar, then every table, per round).
struct SlotResult {
  std::string table;
  /// The first table in AllImplementations() holding the same function:
  /// "scalar" or another table's name when the slot borrows a variant.
  std::string impl;
  double ns_per_block = 0.0;
  double speedup = 0.0;  ///< median of the per-round scalar/table ratios
  double speedup_min = 0.0;
  double speedup_max = 0.0;
};

/// One benched kernel: the scalar time plus one SlotResult per vector table.
struct KernelResult {
  std::string name;
  double scalar_ns_per_block = 0.0;
  std::vector<SlotResult> tables;
};

constexpr int kRounds = 5;

template <typename Slot>
std::string SlotOwner(Slot vq::simd::Kernels::*slot,
                      const vq::simd::Kernels& table) {
  for (const vq::simd::Kernels* candidate : vq::simd::AllImplementations()) {
    if (candidate->*slot == table.*slot) return candidate->name;
  }
  return table.name;
}

/// Defeats dead-code elimination of benched kernel results.
volatile double g_sink = 0.0;
void Sink(double value) { g_sink = g_sink + value; }

}  // namespace

int main() {
  const uint64_t kSeed = 20210318;
  vq::bench::PrintHeader("SIMD kernel layer", "util/simd runtime dispatch", kSeed);
  const vq::simd::Kernels& scalar = vq::simd::Scalar();
  const vq::simd::Kernels& dispatched = vq::simd::Active();
  bool vector_dispatch = std::strcmp(dispatched.name, "scalar") != 0;
  std::printf("Dispatch: %s (forced scalar: %s)\n", dispatched.name,
              vq::simd::ForcedScalar() ? "yes" : "no");

  // ---- Problem shape: the scan bench's flights instance (~12k merged rows).
  size_t rows = 4 * vq::bench::BenchRows("flights");
  vq::Table table = vq::MakeFlightsTable(rows, kSeed);
  vq::SummarizerOptions options;
  options.max_fact_dims = 2;
  auto pred = [&](const std::string& dim, vq::ValueId value) {
    return vq::EqPredicate{table.DimIndex(dim), value};
  };
  auto prepared = vq::PreparedProblem::Prepare(
      table, {pred("season", 0)}, table.TargetIndex("cancelled"), options);
  if (!prepared.ok()) {
    std::fprintf(stderr, "prepare failed: %s\n", prepared.status().ToString().c_str());
    return 1;
  }
  const vq::Evaluator& evaluator = prepared.value().evaluator();
  const vq::FactCatalog& catalog = prepared.value().catalog();
  const vq::SummaryInstance& instance = prepared.value().instance();
  size_t n = instance.num_rows;
  size_t words = catalog.ScopeWords();
  double blocks = static_cast<double>(words);
  std::printf("Instance: %zu merged rows (%zu blocks), %zu facts, %zu groups\n",
              n, words, catalog.NumFacts(), catalog.NumGroups());

  // Three speech scope bitsets for the cover-mask kernels.
  vq::Rng rng(kSeed);
  std::vector<const uint64_t*> speech_bits;
  for (int i = 0; i < 3; ++i) {
    speech_bits.push_back(
        catalog.ScopeBits(static_cast<vq::FactId>(rng.NextBelow(catalog.NumFacts())))
            .data());
  }
  std::vector<uint64_t> covered(words);
  (void)scalar.or_popcount(speech_bits.data(), speech_bits.size(), words,
                           covered.data());

  std::span<const double> prior_dev = evaluator.PriorDeviations();
  const std::vector<double>& weights = instance.weight;
  const std::vector<double>& targets = instance.target;

  // min_update runs once per fact a greedy solve selects (ApplyFact), so it
  // is timed on the selected facts of the G-O solve timed end to end below,
  // applied in turn to a deviation column that starts at the prior.
  vq::GreedyOptions greedy_options;
  greedy_options.pruning = vq::FactPruning::kOptimized;
  std::vector<vq::FactId> selected = GreedySummary(evaluator, greedy_options).facts;
  std::vector<uint32_t> touched;  // rows the selected scopes cover
  for (vq::FactId id : selected) {
    auto scope = catalog.ScopeRows(id);
    touched.insert(touched.end(), scope.begin(), scope.end());
  }
  double apply_blocks = static_cast<double>(touched.size()) / 64.0;
  std::sort(touched.begin(), touched.end());
  touched.erase(std::unique(touched.begin(), touched.end()), touched.end());
  std::vector<double> deviation(prior_dev.begin(), prior_dev.end());
  std::vector<double> utilities = evaluator.SingleFactUtilities();

  // ---- Per-kernel measurements (full instance pass per call, ns/block;
  // kernels whose pass covers more than one instance-worth of rows override
  // the block count). Every vector table in AllImplementations() is timed
  // against scalar, not just the dispatched one, so each slot's choice of
  // variant is backed by a number.
  std::vector<const vq::simd::Kernels*> vector_tables;
  for (const vq::simd::Kernels* table : vq::simd::AllImplementations()) {
    if (table != &scalar) vector_tables.push_back(table);
  }
  auto bench_kernel = [&](const std::string& name, auto slot, auto&& call,
                          double pass_blocks = 0.0) {
    if (pass_blocks <= 0.0) pass_blocks = blocks;
    auto ns_per_block = [&](const vq::simd::Kernels& k) {
      return MicrosPerCall([&] { call(k); }) * 1e3 / pass_blocks;
    };
    std::vector<double> scalar_ns;
    std::vector<std::vector<double>> table_ns(vector_tables.size());
    std::vector<std::vector<double>> ratios(vector_tables.size());
    for (int round = 0; round < kRounds; ++round) {
      scalar_ns.push_back(ns_per_block(scalar));
      for (size_t t = 0; t < vector_tables.size(); ++t) {
        table_ns[t].push_back(ns_per_block(*vector_tables[t]));
        ratios[t].push_back(scalar_ns.back() / table_ns[t].back());
      }
    }
    KernelResult result;
    result.name = name;
    result.scalar_ns_per_block = vq::Median(scalar_ns);
    for (size_t t = 0; t < vector_tables.size(); ++t) {
      SlotResult slot_result;
      slot_result.table = vector_tables[t]->name;
      slot_result.impl = SlotOwner(slot, *vector_tables[t]);
      slot_result.ns_per_block = vq::Median(table_ns[t]);
      slot_result.speedup = vq::Median(ratios[t]);
      slot_result.speedup_min = *std::min_element(ratios[t].begin(), ratios[t].end());
      slot_result.speedup_max = *std::max_element(ratios[t].begin(), ratios[t].end());
      result.tables.push_back(slot_result);
    }
    return result;
  };

  using vq::simd::Kernels;
  std::vector<KernelResult> kernels;
  kernels.push_back(
      bench_kernel("or_popcount", &Kernels::or_popcount, [&](const Kernels& k) {
        Sink(static_cast<double>(k.or_popcount(
            speech_bits.data(), speech_bits.size(), words, covered.data())));
      }));
  const double* padded = prior_dev.data();  // full blocks only below
  kernels.push_back(
      bench_kernel("masked_sum64", &Kernels::masked_sum64, [&](const Kernels& k) {
        // The Error() inner loop shape: one masked block sum per cover word.
        double sum = 0.0;
        for (size_t w = 0; w + 1 < words; ++w) {
          sum += k.masked_sum64(padded + (w << 6), ~covered[w]);
        }
        Sink(sum);
      }));
  double join_blocks =
      static_cast<double>(catalog.NumGroups()) * blocks;  // rows per full join
  kernels.push_back(bench_kernel(
      "masked_single_fact", &Kernels::masked_single_fact,
      [&](const Kernels& k) {
        // Every fact as a one-fact speech under kClosest: each row of the
        // fact's scope resolves against the fact value in one masked call
        // per block. A group's facts partition the rows, so one pass covers
        // every row once per group -- the same row count as the full join.
        double sum = 0.0;
        for (vq::FactId id = 0; id < catalog.NumFacts(); ++id) {
          std::span<const uint64_t> bits = catalog.ScopeBits(id);
          for (size_t w = 0; w + 1 < words; ++w) {
            size_t base = w << 6;
            sum += k.masked_single_fact(instance.prior, targets.data() + base,
                                        weights.data() + base, padded + base,
                                        bits[w]);
          }
        }
        Sink(sum);
      },
      join_blocks));
  kernels.push_back(bench_kernel(
      "weighted_abs_dev", &Kernels::weighted_abs_dev, [&](const Kernels& k) {
        Sink(k.weighted_abs_dev(instance.prior, targets.data(), weights.data(), n));
      }));
  kernels.push_back(bench_kernel(
      "gather_weighted_sum", &Kernels::gather_weighted_sum, [&](const Kernels& k) {
        // GroupUtilityBound shape: one gathered sum per fact, for every
        // group (the gather kernels below run the same full join, since
        // greedy bounds, joins and applies across all groups).
        double bound = 0.0;
        for (vq::FactId id = 0; id < catalog.NumFacts(); ++id) {
          auto scope = catalog.ScopeRows(id);
          bound = std::max(bound, k.gather_weighted_sum(
                                      prior_dev.data(), scope.data(),
                                      catalog.ScopeWeights(id).data(), scope.size()));
        }
        Sink(bound);
      },
      join_blocks));
  kernels.push_back(bench_kernel(
      "positive_gain", &Kernels::positive_gain,
      [&](const Kernels& k) {
        // The single-fact-utility kernel on the FULL initialization join:
        // every fact of every group, streaming the CSR-aligned SoA tables
        // (pre-gathered prior deviations included) -- exactly what
        // Evaluator::SingleFactUtilities runs.
        double total = 0.0;
        for (vq::FactId id = 0; id < catalog.NumFacts(); ++id) {
          auto scope = catalog.ScopeRows(id);
          total += k.positive_gain(catalog.ScopePriorDevs(id).data(),
                                   catalog.ScopeDevs(id).data(),
                                   catalog.ScopeWeights(id).data(), scope.size());
        }
        Sink(total);
      },
      join_blocks));
  kernels.push_back(bench_kernel(
      "gather_positive_gain", &Kernels::gather_positive_gain, [&](const Kernels& k) {
        // Greedy gain-loop shape: every group's segments, gathering the
        // (mutable) deviation column.
        double total = 0.0;
        for (vq::FactId id = 0; id < catalog.NumFacts(); ++id) {
          auto scope = catalog.ScopeRows(id);
          total += k.gather_positive_gain(prior_dev.data(), scope.data(),
                                          catalog.ScopeDevs(id).data(),
                                          catalog.ScopeWeights(id).data(),
                                          scope.size());
        }
        Sink(total);
      },
      join_blocks));
  kernels.push_back(
      bench_kernel("min_update", &Kernels::min_update, [&](const Kernels& k) {
        // ApplyFact shape: the selected facts in solve order. Restoring the
        // touched rows afterwards is a scalar loop timed under every table.
        double reduction = 0.0;
        for (vq::FactId id : selected) {
          auto scope = catalog.ScopeRows(id);
          reduction += k.min_update(deviation.data(), scope.data(),
                                    catalog.ScopeDevs(id).data(),
                                    catalog.ScopeWeights(id).data(), scope.size());
        }
        for (uint32_t row : touched) deviation[row] = prior_dev[row];
        Sink(reduction);
      },
      apply_blocks));
  kernels.push_back(bench_kernel("argmax", &Kernels::argmax, [&](const Kernels& k) {
    Sink(static_cast<double>(k.argmax(utilities.data(), utilities.size())));
  }));

  vq::TablePrinter kernel_printer({"Kernel", "Table", "Variant", "ns/block",
                                   "Speedup", "Min", "Max"});
  for (const KernelResult& result : kernels) {
    char buf[4][32];
    std::snprintf(buf[0], sizeof(buf[0]), "%.1f", result.scalar_ns_per_block);
    kernel_printer.AddRow({result.name, "scalar", "scalar", buf[0], "", "", ""});
    for (const SlotResult& slot : result.tables) {
      std::snprintf(buf[0], sizeof(buf[0]), "%.1f", slot.ns_per_block);
      std::snprintf(buf[1], sizeof(buf[1]), "%.2fx", slot.speedup);
      std::snprintf(buf[2], sizeof(buf[2]), "%.2fx", slot.speedup_min);
      std::snprintf(buf[3], sizeof(buf[3]), "%.2fx", slot.speedup_max);
      kernel_printer.AddRow(
          {result.name, slot.table, slot.impl, buf[0], buf[1], buf[2], buf[3]});
    }
  }
  kernel_printer.Print();

  // The dispatched table's median speedup for one kernel (scalar: 1x).
  auto kernel_speedup = [&](const char* name) {
    for (const KernelResult& result : kernels) {
      if (result.name != name) continue;
      for (const SlotResult& slot : result.tables) {
        if (slot.table == dispatched.name) return slot.speedup;
      }
      return 1.0;
    }
    return 0.0;
  };

  // ---- End-to-end greedy solve, scalar vs dispatched tables.
  vq::simd::SetActiveForTesting(&scalar);
  vq::SummaryResult scalar_result = GreedySummary(evaluator, greedy_options);
  double greedy_scalar_us =
      MicrosPerCall([&] { (void)GreedySummary(evaluator, greedy_options); }, 4);
  vq::simd::SetActiveForTesting(&dispatched);
  vq::SummaryResult dispatched_result = GreedySummary(evaluator, greedy_options);
  double greedy_dispatched_us =
      MicrosPerCall([&] { (void)GreedySummary(evaluator, greedy_options); }, 4);
  vq::simd::SetActiveForTesting(nullptr);
  bool greedy_equivalent = scalar_result.facts == dispatched_result.facts;
  scalar_result.counters.ForEachField([&](const char* name, uint64_t value) {
    dispatched_result.counters.ForEachField(
        [&](const char* other_name, uint64_t other_value) {
          if (std::strcmp(name, other_name) == 0 && value != other_value) {
            greedy_equivalent = false;
          }
        });
  });
  double greedy_speedup = greedy_scalar_us / greedy_dispatched_us;
  std::printf(
      "Greedy solve (G-O): scalar %.0f us -> dispatched %.0f us (%.2fx), "
      "facts+counters %s\n",
      greedy_scalar_us, greedy_dispatched_us, greedy_speedup,
      greedy_equivalent ? "identical" : "DIVERGED");

  // ---- End-to-end routed qps (BENCH_router warm shape, 4 threads).
  vq::serve::DatasetRegistry registry;
  vq::Configuration config;
  config.table = "flights";
  config.dimensions = {"airline", "season", "dest_region"};
  config.targets = {"cancelled"};
  config.max_query_predicates = 2;
  if (!registry
           .AddGenerated("flights", config, vq::bench::BenchRows("flights"),
                         kSeed)
           .ok()) {
    return 1;
  }
  auto generator =
      vq::ProblemGenerator::Create(registry.table("flights"), config).value();
  auto queries = vq::bench::StratifiedSampleQueries(generator, 24, kSeed);
  std::vector<std::string> workload;
  for (const auto& query : queries) {
    workload.push_back(RequestText(*registry.table("flights"), query));
  }
  const size_t kTotalRequests = 2000;
  vq::serve::RouterOptions router_options;
  router_options.num_threads = 4;
  router_options.host.simulated_vocalize_seconds = 1e-3;
  vq::serve::RoutingService router(&registry, router_options);
  for (const auto& request : workload) (void)router.AnswerNow(request);
  std::vector<std::future<vq::serve::RoutedResponse>> futures;
  futures.reserve(kTotalRequests);
  vq::Stopwatch router_watch;
  for (size_t i = 0; i < kTotalRequests; ++i) {
    futures.push_back(router.Submit(workload[i % workload.size()]));
  }
  for (auto& future : futures) (void)future.get();
  double router_qps =
      static_cast<double>(kTotalRequests) / router_watch.ElapsedSeconds();

  double baseline_qps = 0.0;
  {
    std::ifstream in("BENCH_router.json");
    if (in) {
      std::stringstream buffer;
      buffer << in.rdbuf();
      auto parsed = vq::Json::Parse(buffer.str());
      if (parsed.ok()) {
        const vq::Json* warm = parsed.value().Get("routed_warm");
        if (warm != nullptr && warm->is_array()) {
          for (size_t i = 0; i < warm->Size(); ++i) {
            const vq::Json* threads = warm->At(i).Get("threads");
            const vq::Json* qps = warm->At(i).Get("qps");
            if (threads != nullptr && qps != nullptr && threads->AsInt() == 4) {
              baseline_qps = qps->AsDouble();
            }
          }
        }
      }
    }
  }
  double qps_delta_pct =
      baseline_qps > 0.0 ? (router_qps - baseline_qps) / baseline_qps * 100.0 : 0.0;
  std::printf("Routed qps at 4 threads: %.0f (BENCH_router.json baseline %.0f, "
              "delta %+.1f%%)\n",
              router_qps, baseline_qps, qps_delta_pct);

  // ---- Acceptance gates. The >=2x bars are an AVX2 promise (4-lane f64);
  // on other vector dispatches only the equivalence and qps invariants gate.
  bool avx2_dispatch = std::strcmp(dispatched.name, "avx2") == 0;
  bool ok = greedy_equivalent;
  if (vector_dispatch) {
    ok = ok && (baseline_qps == 0.0 || qps_delta_pct > -15.0);
  }
  if (avx2_dispatch) {
    // The weighted-deviation and single-fact-utility kernels carry the
    // acceptance bar; greedy must improve end to end.
    ok = ok && kernel_speedup("weighted_abs_dev") >= 2.0 &&
         kernel_speedup("positive_gain") >= 2.0 && greedy_speedup > 1.0;
  }

  // ---- Machine-readable report.
  vq::Json report = vq::Json::Object();
  report.Set("bench", vq::Json::Str("simd_kernels"));
  report.Set("seed", vq::Json::Int(static_cast<int64_t>(kSeed)));
  report.Set("dispatch", vq::Json::Str(dispatched.name));
  report.Set("forced_scalar", vq::Json::Bool(vq::simd::ForcedScalar()));
  report.Set("instance_rows", vq::Json::Int(static_cast<int64_t>(n)));
  report.Set("num_facts", vq::Json::Int(static_cast<int64_t>(catalog.NumFacts())));
  std::vector<vq::Json> table_rows(vector_tables.size(), vq::Json::Array());
  for (const KernelResult& result : kernels) {
    for (size_t t = 0; t < result.tables.size(); ++t) {
      const SlotResult& slot = result.tables[t];
      vq::Json slot_json = vq::Json::Object();
      slot_json.Set("kernel", vq::Json::Str(result.name));
      slot_json.Set("variant", vq::Json::Str(slot.impl));
      slot_json.Set("scalar_ns_per_block",
                    vq::Json::Number(result.scalar_ns_per_block));
      slot_json.Set("ns_per_block", vq::Json::Number(slot.ns_per_block));
      slot_json.Set("speedup", vq::Json::Number(slot.speedup));
      slot_json.Set("speedup_min", vq::Json::Number(slot.speedup_min));
      slot_json.Set("speedup_max", vq::Json::Number(slot.speedup_max));
      table_rows[t].Append(std::move(slot_json));
    }
  }
  // Per vector table, every slot: which variant it holds and how that
  // variant compares to scalar (median and min/max over kRounds rounds).
  vq::Json tables_json = vq::Json::Object();
  for (size_t t = 0; t < vector_tables.size(); ++t) {
    tables_json.Set(vector_tables[t]->name, std::move(table_rows[t]));
  }
  report.Set("tables", std::move(tables_json));
  vq::Json end_to_end = vq::Json::Object();
  end_to_end.Set("greedy_scalar_us", vq::Json::Number(greedy_scalar_us));
  end_to_end.Set("greedy_dispatched_us", vq::Json::Number(greedy_dispatched_us));
  end_to_end.Set("greedy_speedup", vq::Json::Number(greedy_speedup));
  end_to_end.Set("greedy_equivalent", vq::Json::Bool(greedy_equivalent));
  end_to_end.Set("routed_qps", vq::Json::Number(router_qps));
  end_to_end.Set("routed_baseline_qps", vq::Json::Number(baseline_qps));
  end_to_end.Set("routed_qps_delta_pct", vq::Json::Number(qps_delta_pct));
  report.Set("end_to_end", std::move(end_to_end));
  // The solve counters, serialized through the one field-list contract.
  vq::Json counters_json = vq::Json::Object();
  dispatched_result.counters.ForEachField([&](const char* name, uint64_t value) {
    counters_json.Set(name, vq::Json::Int(static_cast<int64_t>(value)));
  });
  report.Set("greedy_counters", std::move(counters_json));
  report.Set("ok", vq::Json::Bool(ok));

  const char* out_env = std::getenv("VQ_BENCH_OUT");
  std::string out_path = out_env != nullptr ? out_env : "BENCH_simd.json";
  std::ofstream out(out_path);
  out << report.Dump(2) << "\n";
  out.close();
  std::printf("Report written to %s [%s]\n", out_path.c_str(), ok ? "OK" : "FAIL");
  return ok ? 0 : 1;
}
