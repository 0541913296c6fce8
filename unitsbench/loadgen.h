#ifndef UNITSBENCH_LOADGEN_H_
#define UNITSBENCH_LOADGEN_H_

// Open-loop load generator over loopback TCP: one generator thread (the
// caller of RunStep) sends every request at its due time, whatever the
// replies are doing, and one collector thread reads the replies of every
// connection with poll(). Each request is timed from when it was due, so a
// stall also charges the requests queued behind it, and the generator's
// own lateness is recorded.

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"

namespace unitsbench {

enum class Proto { kNdjson, kHttp };

struct Request {
  double due_s = 0.0;    // offset from the step's start
  int conn = 0;          // index into the generator's connections
  std::string payload;   // one NDJSON line or one HTTP/1.1 request
  int kind = 0;          // caller-defined request class
  bool keep_body = false;  // keep the reply body for output checks
};

struct Reply {
  bool answered = false;
  bool ok = false;        // HTTP 200 / "ok":true, and no failed window
  int64_t windows = 0;    // windows carried by a stream_feed reply
  double latency_ms = 0;  // reply received minus due time
  std::string body;       // only when the request asked to keep it
};

struct StepResult {
  std::vector<Reply> replies;  // same order as the requests
  /// (seconds since the step start, requests outstanding) at every send.
  std::vector<std::pair<double, double>> outstanding;
  std::vector<double> send_lag_ms;  // send time minus due time
  Clock::time_point start;    // the step's time zero (due_s = 0)
  int64_t unanswered = 0;     // no reply within the drain cap
};

class LoadGenerator {
 public:
  /// Connects one socket per entry of `protos` to 127.0.0.1:port; stops
  /// the run with a structured error if a connection fails.
  LoadGenerator(int port, const std::vector<Proto>& protos);
  ~LoadGenerator();

  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  /// Sends `requests` (ascending due_s) on schedule, then waits for the
  /// outstanding replies for at most `drain_cap_s`. A step that leaves
  /// replies unanswered poisons the connections (late replies would be
  /// attributed to the next step), so callers stop after it.
  StepResult RunStep(const std::vector<Request>& requests,
                     double drain_cap_s);

 private:
  struct Conn;
  std::vector<std::unique_ptr<Conn>> conns_;
};

/// Frames a JSON body as an HTTP/1.1 keep-alive POST to /v1/predict.
std::string HttpPredict(const std::string& body);

}  // namespace unitsbench

#endif  // UNITSBENCH_LOADGEN_H_
