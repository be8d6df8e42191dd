#include "metrics.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace perfbench {

std::string result_json(const RunResult& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", m.value);
    out << (i == 0 ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
        << value << ", \"unit\": \"" << m.unit << "\"}";
  }
  out << "}}";
  return out.str();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double now_s() { return static_cast<double>(now_ns()) * 1e-9; }

std::uint64_t proc_status_bytes(pid_t pid, const char* field) {
  const std::string path =
      pid == 0 ? "/proc/self/status"
               : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  const std::string key(field);
  while (std::getline(in, line)) {
    if (line.compare(0, key.size(), key) == 0) {
      return std::stoull(line.substr(key.size())) * 1024;  // "NNN kB"
    }
  }
  return 0;
}

}  // namespace perfbench
