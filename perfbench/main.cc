// perfbench — the benchmark binary. perfbench/run.py builds it and
// calls it; see README.md.
//
//   perfbench --workload=<sweep-cold|sweep-tier1|serve-skewed> --seed=N
//             --seconds=S --trace=0|1 --work-dir=DIR [--prepare]
//
// --prepare writes the inputs a workload needs (the serve-skewed snapshot)
// and exits; the measured run is a separate process so that setup_s times a
// cold set-up from process start. The last stdout line of a measured run is
// the result JSON; output-check violations go to stderr.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

using namespace perfbench;

namespace {

bool ParseArgs(int argc, char** argv, Options* options, bool* prepare) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    char* end = nullptr;
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return false;
    } else if (key == "--seconds") {
      options->seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' || !(options->seconds > 0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      options->trace = value == "1";
    } else if (key == "--work-dir") {
      options->work_dir = value;
    } else if (key == "--prepare") {
      *prepare = true;
    } else {
      return false;
    }
  }
  return !options->workload.empty();
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  options.threads = std::max(1u, std::thread::hardware_concurrency());
  bool prepare = false;
  if (!ParseArgs(argc, argv, &options, &prepare)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload=W --seed=N --seconds=S "
                 "--trace=0|1 --work-dir=DIR [--prepare]\n");
    return 2;
  }
  const bool cold = options.workload == "sweep-cold";
  const bool serve = options.workload == "serve-skewed";
  if (!cold && !serve && options.workload != "sweep-tier1") {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (prepare) return serve ? PrepareServe(options) : 0;

  const Result result = serve ? RunServe(options) : RunSweep(options, cold);
  for (const std::string& line : result.violations) {
    std::fprintf(stderr, "check failed: %s\n", line.c_str());
  }
  std::printf("%s\n", result.ToJson().c_str());
  return 0;
}
