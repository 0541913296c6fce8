#ifndef UNITSBENCH_STATS_H_
#define UNITSBENCH_STATS_H_

// Pure helpers of the benchmark: quantiles, the seeded open-loop arrival
// schedule, backlog detection and the benchmark's own random numbers.
// Everything here is deterministic and covered by the self-tests
// (selftest.cc), which every run executes before its workload.

#include <chrono>
#include <cstdint>
#include <utility>
#include <vector>

namespace unitsbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// splitmix64: the benchmark draws its inputs from its own generator so a
/// change to the library's Rng cannot silently change the workload.
class SplitMix {
 public:
  explicit SplitMix(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) with 53 random bits.
  double Uniform();
  /// Uniform integer in [0, n); n must be > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Nearest-rank quantile (smallest element whose cumulative share reaches
/// q, the library's metrics::NearestRankQuantile convention) of an
/// unsorted sample; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);

double Median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& values);

/// Arrival offsets in seconds, ascending, of a Poisson process of `rate`
/// per second over [0, duration) conditioned on exactly
/// round(rate * duration) arrivals: that many iid uniform points, sorted.
/// Conditioning on the count keeps every seed's offered load identical
/// while the arrival times stay Poisson-like.
std::vector<double> PoissonSchedule(double rate, double duration,
                                    uint64_t seed);

/// Whether the number of outstanding requests grew over a step. `samples`
/// are (seconds since step start, outstanding) pairs taken at every send.
/// The least-squares slope times the sampled span must exceed both 8
/// requests and 10% of the requests sent for the backlog to count as
/// growing; a sustainable load fluctuates around a constant mean.
bool BacklogGrows(const std::vector<std::pair<double, double>>& samples);

/// Spin calibration: millions of dependent integer operations per second
/// summed over `threads` threads that each spin for `seconds`.
double SpinMops(int threads, double seconds);

}  // namespace unitsbench

#endif  // UNITSBENCH_STATS_H_
