#ifndef UNITSBENCH_WORKLOADS_H_
#define UNITSBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "trace.h"

namespace unitsbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunConfig {
  std::string workload;  // "serve" or "stream"
  uint64_t seed = 0;
  double seconds = 0.0;  // measured request phase
  bool trace = false;
  double spin_1t = 0.0;  // calibration, Mops/s
  double spin_nt = 0.0;
  std::string out_dir;  // this run's own output directory
};

struct RunOutcome {
  std::vector<std::string> check_failures;  // empty when outputs are correct
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;  // end-to-end, or per-layer when traced
};

/// Worker threads of the in-process server's micro-batcher.
constexpr int kBatcherWorkers = 1;

bool IsWorkload(const std::string& name);

RunOutcome RunWorkload(const RunConfig& config, Tracer* tracer);

}  // namespace unitsbench

#endif  // UNITSBENCH_WORKLOADS_H_
