// Shared helpers for the reproduction benches: scale control, formatting
// and the online CPU count bench_micro stamps into its JSON context.
#pragma once

#include <unistd.h>

#include <cstdlib>
#include <string>

#include "common/string_utils.h"

namespace memfp::bench {

/// CPUs currently online (sysconf), 0 when unknown. google benchmark's own
/// `num_cpus` context field comes from its CPUInfo probe, which reports 1
/// inside this VM — trajectory files record this value instead so the
/// thread-scaling numbers say what parallelism was actually available.
inline int num_cpus_online() {
  const long n = ::sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 0;
}

/// Fleet scale factor, settable via MEMFP_BENCH_SCALE (default 1.0). Lets a
/// quick smoke run (e.g. 0.2) exercise every bench cheaply.
inline double bench_scale() {
  const char* env = std::getenv("MEMFP_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  const double value = std::atof(env);
  return value > 0.0 ? value : 1.0;
}

inline std::string fmt(double value, int precision = 2) {
  return format_double(value, precision);
}

}  // namespace memfp::bench
