// Result plumbing shared by every workload: named metrics with units,
// the operation tally, medians and quantiles, clocks and /proc memory readings.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one benchmark run reports on its last output line.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Check failures, in the order they were found.
  std::vector<std::string> errors;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void fail_check(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

/// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
std::string result_json(const RunResult& result);

double median(std::vector<double> values);
/// The q-quantile (0 <= q <= 1), interpolated between order statistics.
double quantile(std::vector<double> values, double q);

/// Steady-clock seconds (CLOCK_MONOTONIC, the clock Python's
/// time.monotonic_ns() reads, so run.py's spawn time is comparable).
double now_s();
std::uint64_t now_ns();

/// Operator-new calls so far in this process (alloc_counter.cpp).
std::uint64_t heap_allocations();
/// Operator-new calls so far on the calling thread.
std::uint64_t thread_heap_allocations();

/// A "Vm*:" field of /proc/<pid>/status in bytes (0 when unreadable).
/// pid 0 means this process.
std::uint64_t proc_status_bytes(pid_t pid, const char* field);
inline std::uint64_t vm_hwm_bytes(pid_t pid = 0) {
  return proc_status_bytes(pid, "VmHWM:");
}
inline std::uint64_t vm_rss_bytes(pid_t pid = 0) {
  return proc_status_bytes(pid, "VmRSS:");
}

}  // namespace perfbench
