#include "trace.hpp"

#include <fstream>

#include "metrics.hpp"

namespace perfbench {

std::uint32_t Tracer::begin(const char* module, const char* name,
                            std::uint64_t request_id, std::uint32_t parent) {
  if (!enabled_) {
    return 0;
  }
  Span span;
  span.module = module;
  span.name = name;
  span.parent = parent;
  span.request_id = request_id;
  std::lock_guard<std::mutex> lock(mutex_);
  span.start_ns = now_ns();
  spans_.push_back(span);
  return static_cast<std::uint32_t>(spans_.size());
}

void Tracer::end(std::uint32_t id) {
  if (id == 0) {
    return;
  }
  const std::uint64_t t = now_ns();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[id - 1].end_ns = t;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      child_ns[s.parent - 1] += static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double own = static_cast<double>(s.end_ns - s.start_ns) - child_ns[i];
    self[s.module] += (own > 0 ? own : 0.0) * 1e-9;
  }
  return self;
}

void Tracer::write_chrome_trace(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"traceEvents\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": \"" << s.name
        << "\", \"cat\": \"" << s.module << "\", \"ph\": \"X\", \"ts\": "
        << static_cast<double>(s.start_ns) * 1e-3
        << ", \"dur\": " << static_cast<double>(s.end_ns - s.start_ns) * 1e-3
        << ", \"pid\": 1, \"tid\": " << s.request_id
        << ", \"args\": {\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << "}}";
  }
  out << "\n]}\n";
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_.size();
}

}  // namespace perfbench
