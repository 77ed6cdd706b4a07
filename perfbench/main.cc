// memfp end-to-end benchmark.
//
//   memfp_perfbench --workload <fleet-batch|serve-steady|serve-storm|
//                   campaign-sweep> --seed <n> --seconds <n> --trace <0|1>
//                   [--commit <id>]
//
// Prints a context block, one line per metric with its unit, and as the
// last line the JSON result {"correct", "attempted", "failed", "metrics"}.
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones. Exits 1 if an oracle disagrees, 2 on bad arguments or a
// build that must not record numbers. perfbench/run.py builds and runs it.
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "common/simd.h"
#include "common/thread_pool.h"
#include "workloads.h"

namespace memfp::perfbench {
namespace {

// Why a build must not record numbers, or empty when it may.
std::string unfit_build_reason() {
#if !defined(__OPTIMIZE__)
  return "unoptimised build (no -O); configure with -DCMAKE_BUILD_TYPE=Release";
#elif defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#else
  if (std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") !=
      std::string::npos) {
    return "sanitizer build (" + std::string(PERFBENCH_CXX_FLAGS) + ")";
  }
  return {};
#endif
}

#if defined(NDEBUG)
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

void print_context(const Args& args) {
  std::printf(
      "context: {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %d, "
      "\"trace\": %d, \"threads\": %d, \"pool_threads\": %d, "
      "\"simd\": \"%s\", \"build_type\": \"%s\", \"ndebug\": %s, "
      "\"sanitizer\": %s, \"commit\": \"%s\"}\n",
      args.workload.c_str(), static_cast<unsigned long long>(args.seed),
      args.seconds, args.trace ? 1 : 0, args.threads,
      ThreadPool::default_threads(), simd::level_name(simd::active_level()),
      PERFBENCH_BUILD_TYPE, kNdebug ? "true" : "false",
      unfit_build_reason().empty() ? "false" : "true", args.commit.c_str());
}

Result dispatch(const Args& args, const RunOptions& options) {
  if (args.workload == "fleet-batch") return run_fleet_batch(options);
  if (args.workload == "serve-steady") return run_serve_steady(options);
  if (args.workload == "serve-storm") return run_serve_storm(options);
  return run_campaign_sweep(options);
}

}  // namespace
}  // namespace memfp::perfbench

int main(int argc, char** argv) {
  using namespace memfp::perfbench;
  std::string error;
  const std::optional<Args> args =
      parse_args(std::vector<std::string>(argv + 1, argv + argc), error);
  if (!args) {
    std::fprintf(stderr, "memfp_perfbench: %s\n", error.c_str());
    return 2;
  }
  const std::string unfit = unfit_build_reason();
  if (!unfit.empty()) {
    std::fprintf(stderr, "memfp_perfbench: refusing to measure: %s\n",
                 unfit.c_str());
    return 2;
  }
  print_context(*args);

  RunOptions options;
  options.seed = args->seed;
  options.seconds = args->seconds;
  options.trace = args->trace;
  options.threads = args->threads;
  options.work_dir = ".bench_work/" + args->workload;
  std::filesystem::remove_all(options.work_dir);
  std::filesystem::create_directories(options.work_dir);

  // Host steal over the run: CPU the hypervisor gave to other machines,
  // which stretches wall times (not CPU times) when it is high.
  const double steal_start = host_steal_seconds();
  const std::uint64_t run_start = now_ns();
  Result result;
  try {
    result = dispatch(*args, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "memfp_perfbench: %s failed: %s\n",
                 args->workload.c_str(), e.what());
    return 1;
  }
  for (Metric& metric : result.metrics) {
    if (!std::isfinite(metric.value)) {
      result.fail("metric " + metric.name + " is not finite");
      metric.value = 0.0;
    }
  }
  const double steal = host_steal_seconds() - steal_start;
  char steal_note[120];
  std::snprintf(steal_note, sizeof steal_note,
                "host steal: %.2f CPU-s, %.1f%% of the run's CPU capacity",
                steal,
                100.0 * steal / (seconds_since(run_start) * options.threads));
  result.notes.push_back(steal_note);
  for (const std::string& note : result.notes) {
    std::printf("%s\n", note.c_str());
  }
  for (const Metric& metric : result.metrics) {
    std::printf("%-32s %.17g %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  std::printf("%s\n", result_json(result).c_str());
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
