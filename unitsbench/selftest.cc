// The benchmark's own self-tests: the statistics and trace arithmetic the
// metrics rest on. Every run executes them first and refuses to measure if
// any fails; `--selftest` runs them alone.

#include "selftest.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace unitsbench {

namespace {

void Expect(bool ok, const std::string& what,
            std::vector<std::string>* fails) {
  if (!ok) {
    fails->push_back(what);
  }
}

void TestQuantile(std::vector<std::string>* fails) {
  const std::vector<double> five = {50, 15, 40, 20, 35};
  Expect(Quantile(five, 0.05) == 15, "quantile q=0.05 of 5", fails);
  Expect(Quantile(five, 0.30) == 20, "quantile q=0.30 of 5", fails);
  Expect(Quantile(five, 0.40) == 20, "quantile q=0.40 of 5", fails);
  Expect(Quantile(five, 0.50) == 35, "quantile q=0.50 of 5", fails);
  Expect(Quantile(five, 1.00) == 50, "quantile q=1 of 5", fails);
  std::vector<double> ten;
  for (int i = 10; i >= 1; --i) {
    ten.push_back(i);
  }
  Expect(Median(ten) == 5, "median of 1..10 is the 5th value", fails);
  Expect(Quantile(ten, 0.99) == 10, "p99 of 1..10", fails);
  std::vector<double> with_inf = {1, 2, std::numeric_limits<double>::infinity()};
  Expect(std::isinf(Quantile(with_inf, 0.99)),
         "a failure counted as infinite latency reaches p99", fails);
  Expect(Quantile({}, 0.5) == 0, "quantile of an empty sample", fails);
}

void TestSchedule(std::vector<std::string>* fails) {
  const std::vector<double> a = PoissonSchedule(200.0, 5.0, 42);
  const std::vector<double> b = PoissonSchedule(200.0, 5.0, 42);
  const std::vector<double> c = PoissonSchedule(200.0, 5.0, 43);
  Expect(a == b, "same seed reproduces the schedule exactly", fails);
  Expect(a != c, "another seed gives another schedule", fails);
  Expect(a.size() == 1000, "schedule has rate * duration arrivals", fails);
  bool sorted_in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    sorted_in_range &= a[i] >= 0.0 && a[i] < 5.0 && (i == 0 || a[i - 1] <= a[i]);
  }
  Expect(sorted_in_range, "schedule is ascending within [0, duration)",
         fails);
  // Exponential gaps: the coefficient of variation of the gaps is ~1.
  const std::vector<double> big = PoissonSchedule(1000.0, 20.0, 7);
  double mean = 0.0;
  double sq = 0.0;
  for (size_t i = 1; i < big.size(); ++i) {
    const double gap = big[i] - big[i - 1];
    mean += gap;
    sq += gap * gap;
  }
  const double n = static_cast<double>(big.size() - 1);
  mean /= n;
  const double cv = std::sqrt(sq / n - mean * mean) / mean;
  Expect(std::fabs(mean - 1e-3) < 5e-5 && std::fabs(cv - 1.0) < 0.05,
         "schedule gaps look exponential", fails);
  SplitMix x(1);
  SplitMix y(1);
  Expect(x.Next() == y.Next() && x.Below(10) == y.Below(10),
         "SplitMix is deterministic", fails);
}

void TestBacklog(std::vector<std::pair<double, double>> samples, bool want,
                 const std::string& what, std::vector<std::string>* fails) {
  Expect(BacklogGrows(samples) == want, what, fails);
}

void TestBacklogs(std::vector<std::string>* fails) {
  std::vector<std::pair<double, double>> flat;
  std::vector<std::pair<double, double>> growing;
  std::vector<std::pair<double, double>> small_ramp;
  for (int i = 0; i < 1000; ++i) {
    const double t = i * 0.002;
    flat.emplace_back(t, static_cast<double>(i % 4));
    growing.emplace_back(t, 0.5 * i);
    small_ramp.emplace_back(t, static_cast<double>(i * 5 / 1000));
  }
  TestBacklog(flat, false, "a fluctuating backlog is not growing", fails);
  TestBacklog(growing, true, "a linearly growing backlog is detected", fails);
  TestBacklog(small_ramp, false, "a ramp of 5 requests is not growth",
              fails);
  TestBacklog({}, false, "no samples, no growth", fails);
}

void TestSelfTime(std::vector<std::string>* fails) {
  const auto span = [](int64_t start, int64_t end, int64_t parent) {
    Span s;
    s.start_ns = start;
    s.end_ns = end;
    s.parent = parent;
    return s;
  };
  // Parent [0, 100] with overlapping children [10, 30] and [20, 40] and a
  // child [90, 120] that outlives it; a grandchild [12, 14].
  const std::vector<Span> spans = {span(0, 100, -1), span(10, 30, 0),
                                   span(20, 40, 0), span(90, 120, 0),
                                   span(12, 14, 1)};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  Expect(self[0] == 60, "self time subtracts the union of child intervals",
         fails);
  Expect(self[1] == 18, "self time of a span with one child", fails);
  Expect(self[2] == 20 && self[3] == 30 && self[4] == 2,
         "self time of leaf spans is their duration", fails);

  Tracer tracer(true);
  const int64_t outer = tracer.Begin("outer");
  const int64_t inner = tracer.Begin("inner", 7);
  tracer.End(inner);
  tracer.End(outer);
  const std::vector<Span> recorded = tracer.Snapshot();
  Expect(recorded.size() == 2 && recorded[1].parent == outer &&
             recorded[0].parent == -1 && recorded[1].request_id == 7,
         "nested spans record their parent and request id", fails);
  Tracer off(false);
  Expect(off.Begin("x") == -1 && off.size() == 0,
         "a disabled tracer records nothing", fails);
}

}  // namespace

std::vector<std::string> RunSelfTests() {
  std::vector<std::string> fails;
  TestQuantile(&fails);
  TestSchedule(&fails);
  TestBacklogs(&fails);
  TestSelfTime(&fails);
  return fails;
}

}  // namespace unitsbench
