// The host-speed reference the served workloads scale their times by.
//
// This host's speed drifts by a fifth or more from minute to minute, and
// every part of the served path (client, daemon, engine) slows with it.
// A fixed kernel that belongs to the benchmark, not to congestbc, is
// timed between the cycles of a run while the servers are idle; the
// run's times are then scaled by how much slower or faster the kernel
// ran than its reference time.  A change to the program cannot change
// the kernel, so a slower program still reads slower.
#pragma once

#include <cstdint>
#include <vector>

namespace perfbench {

class Calibration {
 public:
  /// About the kernel's fastest-twentieth time on the host where the
  /// bounds were set: a 4-core shared VM (Intel Xeon, 2.0 GHz), 2026-10-20.
  static constexpr double kReferenceMs = 1.3;

  Calibration();

  /// Runs the kernel once and returns its wall time in milliseconds:
  /// eight breadth-first searches over a fixed 4096-node graph, each
  /// with freshly allocated distance and queue vectors.
  double run_ms();

 private:
  std::vector<std::vector<std::uint32_t>> adjacency_;
  std::uint64_t checksum_ = 0;
};

}  // namespace perfbench
