#include "stats.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>

#include "metrics/metrics.h"

namespace unitsbench {

uint64_t SplitMix::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SplitMix::Uniform() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t SplitMix::Below(uint64_t n) { return Next() % n; }

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  return units::metrics::NearestRankQuantile(values, q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

std::vector<double> PoissonSchedule(double rate, double duration,
                                    uint64_t seed) {
  const int64_t count = std::llround(rate * duration);
  SplitMix rng(seed);
  std::vector<double> offsets(static_cast<size_t>(std::max<int64_t>(0, count)));
  for (double& t : offsets) {
    t = rng.Uniform() * duration;
  }
  std::sort(offsets.begin(), offsets.end());
  return offsets;
}

bool BacklogGrows(const std::vector<std::pair<double, double>>& samples) {
  if (samples.size() < 3) {
    return false;
  }
  const double n = static_cast<double>(samples.size());
  double mean_t = 0.0;
  double mean_y = 0.0;
  for (const auto& [t, y] : samples) {
    mean_t += t;
    mean_y += y;
  }
  mean_t /= n;
  mean_y /= n;
  double cov = 0.0;
  double var = 0.0;
  for (const auto& [t, y] : samples) {
    cov += (t - mean_t) * (y - mean_y);
    var += (t - mean_t) * (t - mean_t);
  }
  if (var <= 0.0) {
    return false;
  }
  const double span = samples.back().first - samples.front().first;
  const double growth = cov / var * span;
  return growth > std::max(8.0, 0.1 * n);
}

double SpinMops(int threads, double seconds) {
  std::atomic<int64_t> total{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    pool.emplace_back([&total, seconds, i] {
      const auto start = Clock::now();
      uint64_t x = 0x12345678u + static_cast<uint64_t>(i);
      int64_t ops = 0;
      while (SecondsSince(start) < seconds) {
        for (int k = 0; k < 100000; ++k) {
          x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        ops += 100000;
      }
      // Keep the loop's result observable so it is not optimized away.
      total += ops + static_cast<int64_t>(x & 1u);
    });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return static_cast<double>(total.load()) / seconds / 1e6;
}

}  // namespace unitsbench
