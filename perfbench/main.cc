// Voice-query benchmark program.
//
//   voice_bench --workload <warm_hits|cold_misses|onboard_under_load>
//               --seed <n> --seconds <s> --trace <0|1>
//
// Builds the workload's inputs from the seed, measures it and prints a
// human-readable account followed, as the last line, by one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Untraced runs report the
// end-to-end metrics, traced runs the per-layer ones. Exits 1 when any
// answer disagreed with its reference, 2 on a usage or set-up error.
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/simd.h"
#include "workloads.h"

namespace {

void PrintJson(const perfbench::Report& report, bool trace) {
  std::string out = "{\"correct\": ";
  out += report.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  const auto& metrics = trace ? report.per_layer : report.end_to_end;
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (!std::isfinite(metrics[i].value)) {
      throw std::runtime_error("metric " + metrics[i].name + " is not finite");
    }
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// Confines the process, and every thread it starts later, to one CPU. On a
// shared virtual machine the CPUs the guest sees deliver anywhere from one
// to all of their capacity from minute to minute, and a hand-off to a thread
// on another virtual CPU costs whatever the hypervisor makes it cost; on one
// CPU the measured work is the program's own. The calibration above is taken
// before this, so it still records the host's state.
void PinToOneCpu() {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  int last = -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) last = cpu;
  }
  if (last < 0) throw std::runtime_error("no CPU in the affinity mask");
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(last, &one);
  if (sched_setaffinity(0, sizeof(one), &one) != 0) {
    throw std::runtime_error("sched_setaffinity failed");
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: voice_bench --workload <warm_hits|cold_misses|onboard_under_load> "
               "--seed <n> --seconds <s> --trace <0|1>\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  std::string workload;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return Usage();
  size_t hardware = std::thread::hardware_concurrency();

  try {
    // Recorded beside every run; it never scales a metric.
    perfbench::Calibration host = perfbench::CalibrateHost(hardware == 0 ? 1 : hardware);
    PinToOneCpu();
    const vq::simd::Kernels& kernels = vq::simd::Active();
    std::printf("host: spin %.2f ms on 1 thread, parallelism %.2f of %zu threads; "
                "simd table %s\n",
                host.spin_1t_ms, host.parallelism, host.threads, kernels.name);
    perfbench::Report report;
    if (workload == "warm_hits") {
      report = perfbench::RunWarmHits(options);
    } else if (workload == "cold_misses") {
      report = perfbench::RunColdMisses(options);
    } else if (workload == "onboard_under_load") {
      report = perfbench::RunOnboardUnderLoad(options);
    } else {
      return Usage();
    }
    for (perfbench::Metric& metric : report.per_layer) {
      if (metric.name == "host.spin_1t_ms") metric.value = host.spin_1t_ms;
      if (metric.name == "host.parallelism") metric.value = host.parallelism;
      if (metric.name == "util.simd_table") {
        const auto& all = vq::simd::AllImplementations();
        for (size_t k = 0; k < all.size(); ++k) {
          if (all[k] == &kernels) metric.value = static_cast<double>(k);
        }
      }
    }
    std::printf("attempted %llu, failed %llu\n",
                static_cast<unsigned long long>(report.attempted),
                static_cast<unsigned long long>(report.failed));
    PrintJson(report, options.trace);
    return report.failed == 0 ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "voice_bench: %s\n", error.what());
    return 2;
  }
}
