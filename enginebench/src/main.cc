// enginebench: closed-loop workloads against the engine's public entry
// points, with every result checked against a single-node oracle.
//
//   enginebench --workload large_mix|short_corun|process_mix --seed N
//               --seconds S --trace 0|1 [--out DIR]
//
// The last line of stdout is the JSON result; see README.md.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "enginebench: %s\nusage: enginebench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--out DIR]\n"
               "workloads:",
               why);
  for (const enginebench::WorkloadSpec& w : enginebench::Workloads()) {
    std::fprintf(stderr, " %s", w.name.c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  enginebench::RunOptions options;
  options.out_dir = ".bench_build/results";
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      options.spec = enginebench::FindWorkload(value);
      if (options.spec == nullptr) return Usage("unknown workload");
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      if (!(options.seconds > 0.0)) return Usage("--seconds must be > 0");
    } else if (flag == "--trace") {
      options.trace = std::string_view(value) == "1";
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return Usage("unknown flag");
    }
    if (end != nullptr && *end != '\0') return Usage("bad number");
  }
  if (options.spec == nullptr) return Usage("--workload is required");
  return enginebench::RunWorkload(options);
}
