// End-to-end benchmark entry point, one workload per process. Usage:
//   perfbench --workload <browse|annotate|restart> --seed <n>
//             --seconds <s> --trace <0|1> --data-dir <dir> [--trace-out <file>]
// Prints human-readable lines starting with '#', then one JSON object as
// the last line. Exits 1 when an output check failed, 2 on bad arguments, 3
// when set-up fails.
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      options.seconds = std::stod(value);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--trace-out") {
      options.trace_out = value;
    } else {
      std::cerr << "unknown flag " << flag << "\n";
      return 2;
    }
  }
  if (!perfbench::IsWorkload(options.workload) || options.seconds <= 0 ||
      options.data_dir.empty()) {
    std::cerr << "usage: perfbench --workload <browse|annotate|restart> --seed <n>"
                 " --seconds <s> --trace <0|1> --data-dir <dir> [--trace-out <file>]\n";
    return 2;
  }
  std::filesystem::create_directories(options.data_dir);

  perfbench::Report report;
  perfbench::RunWorkload(options, &report);
  std::cout << "# seed=" << options.seed << " trace=" << options.trace
            << " correct=" << report.correct << " attempted=" << report.attempted
            << " failed=" << report.failed << "\n";
  std::cout << report.ToJson() << std::endl;
  return report.correct && report.failed == 0 ? 0 : 1;
}
