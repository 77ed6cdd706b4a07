#include "harness.h"

#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string_view>

namespace memfp::perfbench {
namespace {

bool parse_u64(std::string_view text, std::uint64_t& out) {
  if (text.empty() || text.front() == '+' || text.front() == '-') return false;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out);
  return ec == std::errc() && end == text.data() + text.size();
}

int online_cpus() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

// Nearest rank of percentile p in an n-sample, in exact integer arithmetic
// (p in units of 1e-4 percent, so 99.9 and 99.99 carry no rounding error).
std::size_t nearest_rank(std::size_t n, double p) {
  const auto units = static_cast<std::uint64_t>(std::llround(p * 1e4));
  const std::uint64_t rank = (units * n + 999'999) / 1'000'000;
  return static_cast<std::size_t>(std::clamp<std::uint64_t>(rank, 1, n));
}

double percentile_sorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  return sorted[nearest_rank(sorted.size(), std::clamp(p, 0.0, 100.0)) - 1];
}

std::string full_precision(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "fleet-batch", "serve-steady", "serve-storm", "campaign-sweep"};
  return names;
}

std::optional<Args> parse_args(const std::vector<std::string>& argv,
                               std::string& error) {
  Args args;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (std::size_t i = 0; i < argv.size(); i += 2) {
    const std::string& flag = argv[i];
    if (i + 1 >= argv.size()) {
      error = "flag " + flag + " needs a value";
      return std::nullopt;
    }
    const std::string& value = argv[i + 1];
    const auto bad = [&](const char* what) {
      error = "invalid " + flag + " '" + value + "': expected " + what;
      return std::nullopt;
    };
    std::uint64_t u = 0;
    if (flag == "--workload") {
      const auto& names = workload_names();
      if (std::find(names.begin(), names.end(), value) == names.end()) {
        return bad("fleet-batch, serve-steady, serve-storm or campaign-sweep");
      }
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      if (!parse_u64(value, u)) return bad("a non-negative whole number");
      args.seed = u;
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!parse_u64(value, u) || u < 1 || u > 600) {
        return bad("a whole number of seconds in [1, 600]");
      }
      args.seconds = static_cast<int>(u);
      have_seconds = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return bad("0 or 1");
      args.trace = value == "1";
      have_trace = true;
    } else if (flag == "--commit") {
      if (value.empty()) return bad("a non-empty commit id");
      args.commit = value;
    } else {
      error = "unknown flag '" + flag + "'";
      return std::nullopt;
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    error = "required: --workload <name> --seed <n> --seconds <n> --trace <0|1>";
    return std::nullopt;
  }
  args.threads = online_cpus();
  return args;
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

double process_cpu_seconds() {
  timespec t{};
  if (::clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &t) != 0) return 0.0;
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

double host_steal_seconds() {
  std::FILE* stat = std::fopen("/proc/stat", "r");
  if (stat == nullptr) return 0.0;
  // cpu user nice system idle iowait irq softirq steal ...
  unsigned long long fields[8] = {};
  const int read = std::fscanf(
      stat, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &fields[0],
      &fields[1], &fields[2], &fields[3], &fields[4], &fields[5], &fields[6],
      &fields[7]);
  std::fclose(stat);
  const long ticks = ::sysconf(_SC_CLK_TCK);
  if (read != 8 || ticks <= 0) return 0.0;
  return static_cast<double>(fields[7]) / static_cast<double>(ticks);
}

double percentile(std::vector<double> sample, double p) {
  std::sort(sample.begin(), sample.end());
  return percentile_sorted(sample, p);
}

double median(std::vector<double> sample) {
  return percentile(std::move(sample), 50.0);
}

bool percentile_supported(std::size_t n, double p) {
  return n > 0 && n - nearest_rank(n, p) >= 10;
}

Summary summarize(std::vector<double> sample) {
  std::sort(sample.begin(), sample.end());
  Summary summary;
  summary.count = sample.size();
  summary.p50 = percentile_sorted(sample, 50.0);
  summary.tail = summary.p50;
  for (const double p : {99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    if (!percentile_supported(sample.size(), p)) continue;
    summary.tail_percentile = p;
    summary.tail = percentile_sorted(sample, p);
    break;
  }
  return summary;
}

std::size_t peak_rss_bytes() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return 0;
  char line[256];
  std::size_t kib = 0;
  while (std::fgets(line, sizeof line, status) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = static_cast<std::size_t>(std::strtoull(line + 6, nullptr, 10));
      break;
    }
  }
  std::fclose(status);
  return kib * 1024;
}

bool reset_peak_rss() {
  std::FILE* refs = std::fopen("/proc/self/clear_refs", "w");
  if (refs == nullptr) return false;
  const bool wrote = std::fputs("5", refs) >= 0;
  return std::fclose(refs) == 0 && wrote;
}

void Result::add(std::string name, double value, std::string unit) {
  metrics.push_back({std::move(name), value, std::move(unit)});
}

void Result::fail(const std::string& reason) {
  correct = false;
  notes.push_back("ORACLE FAILED: " + reason);
}

std::string result_json(const Result& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& metric = result.metrics[i];
    if (i > 0) out += ", ";
    out += json_string(metric.name) + ": {\"value\": " +
           full_precision(metric.value) +
           ", \"unit\": " + json_string(metric.unit) + "}";
  }
  return out + "}}";
}

std::string hex(std::uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

}  // namespace memfp::perfbench
