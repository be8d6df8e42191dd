// perfbench: runs one benchmark workload, checks the program's outputs
// against independent computations, and prints one JSON result line.
//
//   perfbench --workload serve_mixed --seed 3 --seconds 10 --trace 0
//             --bin-dir DIR --run-dir DIR [--start-ns T]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
// half untraced and half traced, runs the module probe, prints per-module
// self time and the per-layer metrics, and writes the spans as a Chrome
// trace into the run directory.  Exit status 0 = every check passed.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "bench.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mixed|"
               "serve_cluster --seed N --seconds S --trace 0|1 --bin-dir DIR "
               "--run-dir DIR [--start-ns T]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Context ctx;
  ctx.process_start_s = perfbench::now_s();
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      ctx.workload = value;
    } else if (flag == "--seed") {
      ctx.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      ctx.seconds = std::stod(value);
    } else if (flag == "--trace") {
      ctx.trace = value == "1";
    } else if (flag == "--bin-dir") {
      ctx.bin_dir = value;
    } else if (flag == "--run-dir") {
      ctx.run_dir = value;
    } else if (flag == "--start-ns") {
      ctx.process_start_s = static_cast<double>(std::stoull(value)) * 1e-9;
    } else {
      return usage();
    }
  }
  if (ctx.run_dir.empty() || ctx.bin_dir.empty() || ctx.seconds <= 0) {
    return usage();
  }
  std::filesystem::create_directories(ctx.run_dir);

  perfbench::RunResult result;
  try {
    if (ctx.workload == "serve_mixed") {
      perfbench::run_serve_mixed(ctx, result);
    } else if (ctx.workload == "serve_cluster") {
      perfbench::run_serve_cluster(ctx, result);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    result.fail_check(std::string("workload aborted: ") + e.what());
  }

  if (ctx.trace) {
    const std::string path =
        ctx.run_dir + "/trace-" + ctx.workload + "-" + std::to_string(ctx.seed) + ".json";
    ctx.tracer.write_chrome_trace(path);
    std::printf("per-module self time (%zu spans, written to %s):\n",
                ctx.tracer.size(), path.c_str());
    for (const auto& [module, seconds] : ctx.tracer.self_seconds()) {
      std::printf("  %-10s %10.4f s\n", module.c_str(), seconds);
    }
  }
  for (const std::string& e : result.errors) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", e.c_str());
  }
  std::printf("%s\n", perfbench::result_json(result).c_str());
  std::fflush(stdout);
  return result.correct && result.errors.empty() ? 0 : 1;
}
