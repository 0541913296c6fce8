#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "json/json.h"

namespace unitsbench {

namespace {

/// Open spans of the calling thread, innermost last. One tracer exists per
/// process, so a plain thread_local stack suffices.
thread_local std::vector<int64_t> open_spans;

}  // namespace

std::vector<int64_t> SelfTimesNs(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start_ns,
                                                           s.end_ns);
    }
  }
  std::vector<int64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t lo = spans[i].start_ns;
    const int64_t hi = spans[i].end_ns;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cursor = lo;
    for (auto [a, b] : kids) {
      a = std::max(a, cursor);
      b = std::min(b, hi);
      if (b > a) {
        covered += b - a;
        cursor = b;
      }
    }
    self[i] = (hi - lo) - covered;
  }
  return self;
}

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch_)
      .count();
}

int64_t Tracer::Begin(const std::string& name, int64_t request_id,
                      int64_t rows) {
  if (!enabled_) {
    return -1;
  }
  Span span;
  span.name = name;
  span.parent = open_spans.empty() ? -1 : open_spans.back();
  span.request_id = request_id;
  span.rows = rows;
  span.start_ns = NowNs();
  int64_t index = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    index = static_cast<int64_t>(spans_.size());
    spans_.push_back(std::move(span));
  }
  open_spans.push_back(index);
  return index;
}

void Tracer::End(int64_t index) {
  if (index < 0) {
    return;
  }
  const int64_t now = NowNs();
  if (!open_spans.empty() && open_spans.back() == index) {
    open_spans.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void Tracer::Record(const std::string& name, Clock::time_point start,
                    Clock::time_point end, int64_t request_id) {
  if (!enabled_) {
    return;
  }
  Span span;
  span.name = name;
  span.start_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(start - epoch_)
          .count();
  span.end_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - epoch_)
          .count();
  span.request_id = request_id;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, SpanAggregate> Tracer::Aggregate() const {
  const std::vector<Span> spans = Snapshot();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  std::map<std::string, SpanAggregate> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    SpanAggregate& agg = out[spans[i].name];
    agg.count += 1;
    agg.total_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
                    1e6;
    agg.self_ms += static_cast<double>(self[i]) / 1e6;
  }
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name,
                                        int64_t rows, size_t begin) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (size_t i = begin; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.name == name && (rows <= 0 || s.rows == rows)) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
    }
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  namespace json = units::json;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  const std::vector<Span> spans = Snapshot();
  const std::vector<int64_t> self = SelfTimesNs(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    json::JsonValue row = json::JsonValue::Object();
    row.Set("span", json::JsonValue::Int(static_cast<int64_t>(i)));
    row.Set("name", json::JsonValue::String(s.name));
    row.Set("start_ns", json::JsonValue::Int(s.start_ns));
    row.Set("end_ns", json::JsonValue::Int(s.end_ns));
    row.Set("self_ns", json::JsonValue::Int(self[i]));
    row.Set("parent", json::JsonValue::Int(s.parent));
    row.Set("request_id", json::JsonValue::Int(s.request_id));
    if (s.rows > 0) {
      row.Set("rows", json::JsonValue::Int(s.rows));
    }
    std::fprintf(f, "%s\n", row.Dump().c_str());
  }
  for (const auto& [name, agg] : Aggregate()) {
    json::JsonValue row = json::JsonValue::Object();
    row.Set("aggregate", json::JsonValue::String(name));
    row.Set("count", json::JsonValue::Int(agg.count));
    row.Set("total_ms", json::JsonValue::Number(agg.total_ms));
    row.Set("self_ms", json::JsonValue::Number(agg.self_ms));
    std::fprintf(f, "%s\n", row.Dump().c_str());
  }
  return std::fclose(f) == 0;
}

}  // namespace unitsbench
