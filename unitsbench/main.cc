// units_bench: one in-process benchmark of the UniTS library's fit, serve
// and stream paths. Usage (normally through run.py, which builds it):
//
//   units_bench --workload serve|stream --seed N --seconds S --trace 0|1
//   units_bench --selftest
//
// Prints a host record, every metric with its unit, and as its last line
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exit codes: 0 success (correct may still be false), 1 a library or
// self-test failure, 2 bad arguments or environment, 3 the wall-clock cap.

#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "base/logging.h"
#include "base/parallel.h"
#include "json/json.h"
#include "selftest.h"
#include "stats.h"
#include "trace.h"
#include "workloads.h"

extern char** environ;

namespace unitsbench {
namespace {

namespace json = units::json;

// The intra-op pool size every run uses. A second pool thread bought no
// steady speed-up for these small models and doubled the run-to-run spread
// of the fit metrics.
constexpr int kPoolThreads = 1;
constexpr double kWallCapS = 150.0;

[[noreturn]] void Refuse(int code, const std::string& what) {
  json::JsonValue err = json::JsonValue::Object();
  err.Set("error", json::JsonValue::String(what));
  std::fprintf(stderr, "%s\n", err.Dump().c_str());
  std::exit(code);
}

/// Ends the process with a structured error if the run outlives the cap.
class Watchdog {
 public:
  Watchdog(double cap_s, std::string workload)
      : thread_([this, cap_s, workload = std::move(workload)] {
          std::unique_lock<std::mutex> lock(mu_);
          const bool finished = cv_.wait_for(
              lock, std::chrono::duration<double>(cap_s), [this] {
                return done_;
              });
          if (!finished) {
            json::JsonValue err = json::JsonValue::Object();
            err.Set("error", json::JsonValue::String("wall-clock cap exceeded"));
            err.Set("workload", json::JsonValue::String(workload));
            err.Set("cap_s", json::JsonValue::Number(cap_s));
            std::fprintf(stderr, "%s\n", err.Dump().c_str());
            std::fflush(stderr);
            std::_Exit(3);
          }
        }) {}

  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }

  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;  // guarded by mu_
  std::thread thread_;  // declared last: it uses the members above
};

/// Every UNITS_* variable the process sees. Only UNITS_NUM_THREADS=1 is
/// let through, since the pool is pinned to 1 thread anyway: the other
/// hatches switch kernels or execution paths, and a stray one would
/// silently skew a comparison.
json::JsonValue CheckEnvironment() {
  json::JsonValue seen = json::JsonValue::Object();
  for (char** env = environ; *env != nullptr; ++env) {
    const std::string entry(*env);
    if (entry.rfind("UNITS_", 0) != 0) {
      continue;
    }
    const size_t eq = entry.find('=');
    const std::string name = entry.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : entry.substr(eq + 1);
    seen.Set(name, json::JsonValue::String(value));
    if (name != "UNITS_NUM_THREADS" || value != "1") {
      Refuse(2, name + "=" + value + " is set; unset every UNITS_* variable "
                "(only UNITS_NUM_THREADS=1, the pinned pool size, is allowed)");
    }
  }
  return seen;
}

std::string FormatNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

int Main(int argc, char** argv) {
  std::string workload;
  long long seed = -1;
  double seconds = 0.0;
  int trace = -1;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::atoll(argv[++i]);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else {
      Refuse(2, "unknown or incomplete argument " + arg);
    }
  }

  const std::vector<std::string> self_failures = RunSelfTests();
  for (const std::string& f : self_failures) {
    std::fprintf(stderr, "self-test failed: %s\n", f.c_str());
  }
  if (selftest) {
    std::printf("self-tests: %s\n", self_failures.empty() ? "ok" : "FAILED");
    return self_failures.empty() ? 0 : 1;
  }
  if (!self_failures.empty()) {
    Refuse(1, "self-tests failed");
  }
  if (!IsWorkload(workload) || seed < 0 || !(seconds > 0.0) ||
      (trace != 0 && trace != 1)) {
    Refuse(2, "usage: units_bench --workload serve|stream --seed N "
              "--seconds S --trace 0|1");
  }

  json::JsonValue units_env = CheckEnvironment();
  units::SetLogLevel(units::LogLevel::kWarning);
  units::base::SetNumThreads(kPoolThreads);
  Watchdog watchdog(kWallCapS, workload);

  RunConfig config;
  config.workload = workload;
  config.seed = static_cast<uint64_t>(seed);
  config.seconds = seconds;
  config.trace = trace == 1;
  config.spin_1t = SpinMops(1, 0.25);
  config.spin_nt = SpinMops(kPoolThreads, 0.25);

  // Each run writes into a directory of its own, so runs share no files.
  const auto stamp = std::chrono::system_clock::now().time_since_epoch();
  const std::filesystem::path out_dir =
      std::filesystem::path(".bench_out") /
      (workload + "-seed" + std::to_string(seed) + "-trace" +
       std::to_string(trace) + "-" + std::to_string(::getpid()) + "-" +
       std::to_string(
           std::chrono::duration_cast<std::chrono::microseconds>(stamp)
               .count()));
  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);
  if (ec) {
    Refuse(2, "cannot create " + out_dir.string());
  }

  config.out_dir = out_dir.string();

  json::JsonValue host = json::JsonValue::Object();
  host.Set("workload", json::JsonValue::String(workload));
  host.Set("seed", json::JsonValue::Int(seed));
  host.Set("seconds", json::JsonValue::Number(seconds));
  host.Set("trace", json::JsonValue::Bool(config.trace));
  host.Set("spin_1t_mops", json::JsonValue::Number(config.spin_1t));
  host.Set("spin_nt_mops", json::JsonValue::Number(config.spin_nt));
  host.Set("spin_nt_threads", json::JsonValue::Int(kPoolThreads));
  json::JsonValue threads = json::JsonValue::Object();
  threads.Set("intra_op_pool", json::JsonValue::Int(units::base::NumThreads()));
  threads.Set("batcher_workers", json::JsonValue::Int(kBatcherWorkers));
  threads.Set("batcher_scheduler", json::JsonValue::Int(1));
  threads.Set("server_event_loop", json::JsonValue::Int(1));
  threads.Set("load_generator", json::JsonValue::Int(1));
  threads.Set("reply_collector", json::JsonValue::Int(1));
  threads.Set("hardware_concurrency",
              json::JsonValue::Int(std::thread::hardware_concurrency()));
  threads.Set("online_cpus", json::JsonValue::Int(::sysconf(_SC_NPROCESSORS_ONLN)));
  host.Set("threads", std::move(threads));
  host.Set("units_env", std::move(units_env));
  host.Set("output_dir", json::JsonValue::String(out_dir.string()));
  std::printf("host %s\n", host.Dump().c_str());
  std::ofstream(out_dir / "host.json") << host.Dump(2) << "\n";

  Tracer tracer(config.trace);
  const RunOutcome outcome = RunWorkload(config, &tracer);
  if (config.trace && !tracer.WriteJsonl((out_dir / "spans.jsonl").string())) {
    Refuse(1, "cannot write the span file");
  }

  for (const std::string& f : outcome.check_failures) {
    std::fprintf(stderr, "output check failed: %s\n", f.c_str());
  }
  std::string metrics = "{";
  for (const Metric& m : outcome.metrics) {
    std::printf("metric %-34s %16.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
    if (metrics.size() > 1) {
      metrics += ",";
    }
    metrics += "\"" + m.name + "\":{\"value\":" + FormatNumber(m.value) +
               ",\"unit\":\"" + m.unit + "\"}";
  }
  metrics += "}";
  const bool correct = outcome.check_failures.empty();
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":%s}\n",
              correct ? "true" : "false",
              static_cast<long long>(std::max<int64_t>(1, outcome.attempted)),
              static_cast<long long>(outcome.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace unitsbench

int main(int argc, char** argv) { return unitsbench::Main(argc, argv); }
