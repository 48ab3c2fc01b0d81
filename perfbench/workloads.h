// The benchmark's three workloads over the public core::Graphitti API.
// README.md says why each one exists and which layer metric should move
// which end-to-end metric.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>

#include "harness.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;   // scratch directory for durable engines
  std::string trace_out;  // span dump of the traced run
};

/// Names accepted by RunWorkload.
bool IsWorkload(const std::string& name);

/// Sets up the workload's corpus, runs its closed loop for
/// `options.seconds` and fills `report`: every end-to-end metric, or with
/// `options.trace` every per-layer metric.
void RunWorkload(const Options& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
