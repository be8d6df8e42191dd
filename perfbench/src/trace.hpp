// The traced run's span recorder.  Spans are recorded from the
// benchmark's own code around each public call it makes into a module
// (nothing inside src/ is instrumented), kept in memory, and written out
// when the run ends.  A disabled Tracer records nothing, so the untraced
// runs that give the end-to-end metrics pay one branch per call.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* module = "";
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t parent = 0;  ///< 1-based index of the parent span; 0 = root
  std::uint64_t request_id = 0;
};

class Tracer {
 public:
  void set_enabled(bool enabled) { enabled_ = enabled; }
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its 1-based id (0 when disabled).
  std::uint32_t begin(const char* module, const char* name,
                      std::uint64_t request_id, std::uint32_t parent = 0);
  void end(std::uint32_t id);

  /// Self time per module in seconds: each span's duration minus the
  /// part of it its child spans cover.
  std::map<std::string, double> self_seconds() const;

  /// Chrome trace-event JSON of every span (one thread per request id).
  void write_chrome_trace(const std::string& path) const;

  std::size_t size() const;

 private:
  bool enabled_ = false;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span; a no-op when the tracer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const char* module, const char* name,
             std::uint64_t request_id = 0, std::uint32_t parent = 0)
      : tracer_(tracer),
        id_(tracer.begin(module, name, request_id, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint32_t id() const { return id_; }

 private:
  Tracer& tracer_;
  std::uint32_t id_;
};

}  // namespace perfbench
