// Measurement harness of the memfp benchmark: strict argument parsing, the
// one percentile path, per-workload peak-RSS isolation and the result line
// the benchmark prints last. Nothing here knows about a workload; the
// workload files call into memfp's public headers and report through these
// types.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace memfp::perfbench {

// ---------------------------------------------------------------------------
// Arguments
// ---------------------------------------------------------------------------

/// The workloads the benchmark knows, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  /// Thread cap: the online CPU count.
  int threads = 1;
  /// Commit the binary was built from, for the context block.
  std::string commit = "unknown";
};

/// Parses `--workload <name> --seed <n> --seconds <n> --trace <0|1>` plus
/// the optional `--commit <id>`. Every value must parse completely: a seed
/// that is negative, signed or not a whole number, seconds outside [1, 600],
/// a trace flag other than 0/1, an unknown workload or flag, or a missing
/// required flag all yield nullopt with `error` naming the offender.
std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               std::string& error);

// ---------------------------------------------------------------------------
// Clock and statistics
// ---------------------------------------------------------------------------

/// Monotonic nanoseconds (steady_clock); also the ServingConfig::now_ns probe.
std::uint64_t now_ns();

/// Seconds elapsed since a now_ns() reading.
double seconds_since(std::uint64_t start_ns);

/// User + system CPU seconds of this process, all threads, to the
/// nanosecond (CLOCK_PROCESS_CPUTIME_ID). Unlike wall time it does not grow
/// while the host runs someone else.
double process_cpu_seconds();

/// CPU seconds the hypervisor has taken from this machine's CPUs so far
/// (the `steal` column of /proc/stat, all CPUs); 0 where unknown.
double host_steal_seconds();

/// Wall and CPU seconds of one timed region, from construction on.
class Stopwatch {
 public:
  Stopwatch() : start_ns_(now_ns()), start_cpu_(process_cpu_seconds()) {}
  double wall_s() const { return seconds_since(start_ns_); }
  double cpu_s() const { return process_cpu_seconds() - start_cpu_; }

 private:
  std::uint64_t start_ns_;
  double start_cpu_;
};

/// Nearest-rank percentile: the smallest element with at least p percent of
/// the sample at or below it. `p` is in [0, 100] with a resolution of 1e-4;
/// the rank is computed in integers, so p99.9 of 10^4 samples is exactly the
/// 9990th. An empty sample yields 0.
double percentile(std::vector<double> sample, double p);

/// Median (nearest-rank p50).
double median(std::vector<double> sample);

/// A timing as the benchmark reports it: the median, plus the highest
/// percentile of {99.99, 99.9, 99, 95, 90, 75, 50} that still has at least
/// ten samples above its rank, and the sample count. `tail_percentile` is 0
/// (and `tail` equals the median) when fewer than 20 samples support no
/// percentile at all.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double tail_percentile = 0.0;
  double tail = 0.0;
};
Summary summarize(std::vector<double> sample);

/// True when the nearest-rank `p` of an n-sample leaves >= 10 samples above.
bool percentile_supported(std::size_t n, double p);

// ---------------------------------------------------------------------------
// Memory
// ---------------------------------------------------------------------------

/// Peak resident set size (VmHWM) of this process in bytes; 0 if unknown.
std::size_t peak_rss_bytes();

/// Resets VmHWM to the current RSS by writing 5 to /proc/self/clear_refs,
/// so the next peak_rss_bytes() covers only what runs after this call.
/// Returns false (peak left untouched) where the kernel refuses.
bool reset_peak_rss();

// ---------------------------------------------------------------------------
// Result
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the correctness verdict of its oracles,
/// the operations it attempted and failed, its metrics, and human-readable
/// notes (sample counts, hashes) printed above the result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;

  void add(std::string name, double value, std::string unit);
  /// Records a failed oracle: clears `correct` and keeps the reason.
  void fail(const std::string& reason);
};

/// The last stdout line: {"correct", "attempted", "failed", "metrics"} with
/// every value printed to full double precision.
std::string result_json(const Result& result);

/// Hex rendering of a 64-bit hash for notes and diagnostics.
std::string hex(std::uint64_t value);

}  // namespace memfp::perfbench
