#ifndef UNITSBENCH_TRACE_H_
#define UNITSBENCH_TRACE_H_

// In-memory span recorder for the traced run. Spans are recorded only by
// the benchmark's own files, around calls into the library's public API
// (the delegating wrappers in fixture.cc and the harness phases); they are
// kept in memory and written out when the run ends. A disabled tracer
// records nothing and reads no clock.

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "stats.h"

namespace unitsbench {

struct Span {
  std::string name;
  int64_t start_ns = 0;  // since the tracer's epoch
  int64_t end_ns = 0;
  int64_t parent = -1;   // index of the enclosing span on the same thread
  int64_t request_id = 0;
  int64_t rows = 0;      // batch rows for Predict spans, else 0
};

/// Per-name aggregate: count, summed duration and summed self time (the
/// duration minus the part of the interval covered by child spans).
struct SpanAggregate {
  int64_t count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Self time of every span, in nanoseconds, by span index. Children are
/// the spans whose `parent` is that index; their intervals are clipped to
/// the parent's and merged, so overlapping children are not subtracted
/// twice.
std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans);

class Tracer {
 public:
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread, nested under the thread's
  /// innermost open span; returns its index (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t request_id = 0,
                int64_t rows = 0);
  void End(int64_t index);

  /// Records a finished span measured elsewhere (e.g. a client request
  /// timed from when it was due), without a parent.
  void Record(const std::string& name, Clock::time_point start,
              Clock::time_point end, int64_t request_id);

  std::vector<Span> Snapshot() const;
  std::map<std::string, SpanAggregate> Aggregate() const;

  /// Writes one JSON object per span, then one per aggregate, to `path`.
  bool WriteJsonl(const std::string& path) const;

  /// Durations in milliseconds of every span called `name` from index
  /// `begin` on, filtered by `rows` when rows > 0.
  std::vector<double> DurationsMs(const std::string& name, int64_t rows = 0,
                                  size_t begin = 0) const;

  size_t size() const;

 private:
  int64_t NowNs() const;

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span: Begin on construction, End on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int64_t rows = 0)
      : tracer_(tracer), index_(tracer->Begin(name, 0, rows)) {}
  ~ScopedSpan() { tracer_->End(index_); }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_;
};

}  // namespace unitsbench

#endif  // UNITSBENCH_TRACE_H_
