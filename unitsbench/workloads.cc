// The two workloads and their output checks. Both fit the fixture models
// in their set-up (where the fit-side metrics are measured), then drive an
// in-process SocketServer holding the three fitted models with open-loop
// Poisson traffic over a ladder of offered rates:
//
//   serve   predicts with a fixed model mix over two NDJSON connections and
//           one HTTP/1.1 keep-alive connection, plus an operator connection
//           polling `stats`;
//   stream  stream_feed chunks for many sessions on the anomaly model over
//           two NDJSON connections, light HTTP predicts on a third, plus
//           the operator connection.
//
// README.md in this directory lists every metric with its unit and the
// layer it belongs to.

#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <thread>
#include <utility>

#include "base/profile.h"
#include "data/dataloader.h"
#include "data/synthetic.h"
#include "fixture.h"
#include "json/json.h"
#include "loadgen.h"
#include "optim/optimizer.h"
#include "serve/model_registry.h"
#include "serve/socket_server.h"
#include "serve/streaming.h"
#include "tensor/tensor_ops.h"

namespace unitsbench {

namespace {

namespace core = units::core;
namespace serve = units::serve;
namespace json = units::json;
using units::Tensor;

// --- fixed workload parameters ---------------------------------------------

// Set-ups before the request phase, and in the plain run more before its
// last rung, so the fit metrics sample the host's speed at both ends of
// the run; setup_s and fit_s are medians over all of them. The traced run
// makes all of them before the request phase, so its span ranges stay
// apart. Each set-up runs on the next CPU the process may use (see
// ScopedCpuPin).
constexpr int kSetupReps = 2;
constexpr int kLateSetupReps = 2;
// Batched held-out Predicts per task and set-up.
constexpr int kScoreRounds = 8;
constexpr double kLatencyLimitMs = 100.0;  // p99 limit for a ladder rung
constexpr double kMaxFailShare = 0.01;    // failure share limit for a rung
constexpr double kDrainCapS = 30.0;
constexpr double kStatsPollHz = 4.0;
constexpr int kKeepOneIn = 16;        // share of predicts kept for checks
constexpr int64_t kMaxBatch = 16;     // the micro-batcher's max_batch_size
// A reference rung whose sends ran this late (p99) measured the generator,
// not the server; the run is invalid.
constexpr double kMaxSendLagMs = 20.0;

struct Rung {
  double rate;   // offered requests per second
  double share;  // share of --seconds spent on this rung
};

// Rates straddle the capacity measured on a shared 4-vCPU x86-64 host
// (pool of 1 thread, 1 batch worker): the rungs below the top pass, the
// top rung offers about twice the saturated throughput or more and fails
// through a growing backlog; goodput_rps is the throughput the server
// sustains there. The top rung runs twice, before and after the late
// set-ups, and goodput_rps is the mean of the two: one burst of a few
// seconds read the host's speed of that moment. The reference rung, where
// ok_ratio and the client.* latencies are read, runs at low load and gets
// the most time: there latency is the batching delay, the forward and the
// transport, not queueing.
const std::vector<Rung> kServeLadder = {
    {250.0, 0.50}, {750.0, 0.20}, {8000.0, 0.15}, {8000.0, 0.15}};
constexpr size_t kServeReference = 0;

// Stream rates are feeds per second over all sessions.
const std::vector<Rung> kStreamLadder = {
    {500.0, 0.45}, {1000.0, 0.10}, {2500.0, 0.15}, {15000.0, 0.15},
    {15000.0, 0.15}};
constexpr size_t kStreamReference = 0;

constexpr int kStreamConns = 2;
constexpr int kSessionsPerConn = 8;
constexpr int64_t kStride = kAnomalyWindow / 2;
constexpr int64_t kChunk = 8;            // points per channel per feed
constexpr double kBackgroundHz = 20.0;   // HTTP predicts beside the feeds

// Request kinds.
constexpr int kPrimary = 0;  // predict (serve) or stream_feed (stream)
constexpr int kStats = 1;
constexpr int kBackground = 2;

using OpTotals = std::map<std::string, units::base::OpStat>;

OpTotals ReadOps() {
  const auto snap = units::base::OpStatsRegistry::Global()->Snapshot();
  return OpTotals(snap.begin(), snap.end());
}

void AddDiff(const OpTotals& before, const OpTotals& after, OpTotals* acc) {
  for (const auto& [name, stat] : after) {
    units::base::OpStat base;
    if (auto it = before.find(name); it != before.end()) {
      base = it->second;
    }
    (*acc)[name].calls += stat.calls - base.calls;
    (*acc)[name].total_ns += stat.total_ns - base.total_ns;
  }
}

bool SameFloats(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

bool SameResult(const core::TaskResult& a, const core::TaskResult& b) {
  return a.labels == b.labels && SameFloats(a.predictions, b.predictions) &&
         SameFloats(a.scores, b.scores);
}

double PeakRssMb() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/// A JSON number that parses back to exactly `v`.
void AppendFloat(std::string* out, float v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", static_cast<double>(v));
  out->append(buf);
}

/// [[c0 t0, c0 t1, ...], [c1 ...]] for columns [begin, begin+len) of a
/// [D, T] series stored row-major with row length `stride`.
std::string SeriesJson(const float* base, int64_t channels, int64_t stride,
                       int64_t begin, int64_t len) {
  std::string out = "[";
  for (int64_t d = 0; d < channels; ++d) {
    out += d == 0 ? "[" : ",[";
    for (int64_t t = 0; t < len; ++t) {
      if (t > 0) {
        out += ',';
      }
      AppendFloat(&out, base[d * stride + begin + t]);
    }
    out += ']';
  }
  out += ']';
  return out;
}

Tensor RowOf(const Tensor& x, int64_t row) {
  return units::ops::Slice(x, 0, row, 1);
}

/// Replays the pre-training of fresh copies of one task's fixture
/// templates, the same epochs of the same batches, timing each public call
/// of a step: DataLoader::Next, BuildLoss (forward), ZeroGrad + Backward,
/// ClipGradNorm + Adam::Step.
struct StepReplay {
  double next_ms = 0.0;
  double forward_ms = 0.0;
  double backward_ms = 0.0;
  double step_ms = 0.0;
  int64_t steps = 0;

  double parts_ms() const {
    return next_ms + forward_ms + backward_ms + step_ms;
  }
};

void ReplayTrainingSteps(const TaskData& data, StepReplay* out) {
  Tracer untraced(false);
  auto pipeline = BuildPipeline(data, &untraced);
  for (size_t i = 0; i < pipeline->num_templates(); ++i) {
    core::PretrainTemplate* tmpl = pipeline->template_at(i);
    if (!tmpl->Initialize().ok()) {
      Die("template Initialize failed in the step replay");
    }
    tmpl->encoder()->SetTraining(true);
    units::Rng rng(7 + i);
    // One probe loss so lazily built modules exist before Adam sees the
    // parameter list, as the library's own pre-training loop does.
    (void)tmpl->BuildLoss(units::ops::Slice(data.train.values(), 0, 0, 2),
                          &rng);
    std::vector<units::autograd::Variable> params =
        tmpl->encoder()->Parameters();
    units::optim::Adam adam(params, 1e-3f);
    const units::data::TimeSeriesDataset series(data.train.values());
    units::data::DataLoader loader(&series, kPretrainBatch,
                                   /*shuffle=*/true, &rng);
    for (int64_t epoch = 0; epoch < kPretrainEpochs; ++epoch) {
      loader.Reset();
      units::data::Batch batch;
      while (true) {
        const auto t0 = Clock::now();
        if (!loader.Next(&batch)) {
          break;
        }
        const auto t1 = Clock::now();
        units::autograd::Variable loss = tmpl->BuildLoss(batch.values, &rng);
        const auto t2 = Clock::now();
        adam.ZeroGrad();
        loss.Backward();
        const auto t3 = Clock::now();
        units::optim::ClipGradNorm(params, 5.0f);
        adam.Step();
        const auto t4 = Clock::now();
        out->next_ms += MsBetween(t0, t1);
        out->forward_ms += MsBetween(t1, t2);
        out->backward_ms += MsBetween(t2, t3);
        out->step_ms += MsBetween(t3, t4);
        out->steps += 1;
      }
    }
  }
}

// --- fixture phase -----------------------------------------------------------

struct FixturePhase {
  std::vector<TaskData> data;
  std::vector<std::unique_ptr<core::UnitsPipeline>> pipelines;  // last set-up
  std::vector<double> setup_s;
  std::vector<double> fit_s;
  double score_rows = 0.0;  // rows scored by the timed steady Predicts
  double score_ms = 0.0;    // and their summed wall time
  std::vector<double> capture_ms;             // per set-up
  Quality quality;
  OpTotals fit_ops;
  double fit_wall_ms = 0.0;
  StepReplay replay;  // traced run: one replay after each task's fit
  std::vector<core::TaskResult> results;  // last set-up's held-out Predicts
};

/// Captures the eval plans of every batch shape the micro-batcher can form,
/// so no request pays a first-shape capture while it is being timed.
void WarmServingShapes(core::UnitsPipeline* pipeline, const TaskData& data) {
  for (int64_t rows = 1; rows <= kMaxBatch; ++rows) {
    if (!pipeline->Predict(units::ops::Slice(data.heldout, 0, 0, rows)).ok()) {
      Die("warm-up Predict failed for " + data.task);
    }
  }
}

/// The median of the set-ups' times, averaging the two middle values of an
/// even count: the nearest-rank Median of a run's four set-ups would always
/// read the second fastest.
double SetUpMedian(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

/// Pins the calling thread to the `index`-th CPU (modulo their count) of
/// those the process may use, and restores its CPU mask when destroyed.
/// On a shared host one vCPU ran the same fit 15-20 % slower than another
/// at the same moment, for tens of seconds at a time, so a run whose
/// set-ups all landed on one vCPU read that vCPU's speed; set-ups that
/// visit the vCPUs in turn average over them.
class ScopedCpuPin {
 public:
  explicit ScopedCpuPin(int index) {
    if (sched_getaffinity(0, sizeof(saved_), &saved_) != 0) {
      return;
    }
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &saved_)) {
        cpus.push_back(c);
      }
    }
    if (cpus.size() < 2) {
      return;
    }
    cpu_ = cpus[static_cast<size_t>(index) % cpus.size()];
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_, &one);
    pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
  }

  ~ScopedCpuPin() {
    if (pinned_) {
      sched_setaffinity(0, sizeof(saved_), &saved_);
    }
  }

  ScopedCpuPin(const ScopedCpuPin&) = delete;
  ScopedCpuPin& operator=(const ScopedCpuPin&) = delete;

  /// The CPU the thread is pinned to, or -1 when it is not pinned.
  int cpu() const { return pinned_ ? cpu_ : -1; }

 private:
  cpu_set_t saved_;
  int cpu_ = -1;
  bool pinned_ = false;
};

/// Runs one set-up into `phase`: fits the three fixture pipelines, scores
/// the held-out sets and checks that they match the previous set-up's.
void SetUpOnce(FixturePhase* phase, Tracer* tracer,
               std::vector<std::string>* fails) {
  const int rep = static_cast<int>(phase->setup_s.size());
  const ScopedCpuPin pin(rep);
  const auto start = Clock::now();
  phase->data = MakeFixtureData();
  phase->pipelines.clear();
  double fit = 0.0;
  std::vector<double> first_ms;
  std::vector<core::TaskResult> results;
  for (const TaskData& data : phase->data) {
    auto pipeline = BuildPipeline(data, tracer);
    const OpTotals before = tracer->enabled() ? ReadOps() : OpTotals();
    const FitTimes times = FitPipeline(pipeline.get(), data, tracer);
    if (tracer->enabled()) {
      AddDiff(before, ReadOps(), &phase->fit_ops);
      // Right after the Pretrain it is compared with, so the host's speed
      // drifts little between the two.
      ReplayTrainingSteps(data, &phase->replay);
    }
    fit += times.pretrain_s + times.finetune_s;
    const auto t1 = Clock::now();
    auto result = pipeline->Predict(data.heldout);
    first_ms.push_back(MsBetween(t1, Clock::now()));
    if (!result.ok()) {
      Die("Predict " + data.task + ": " + result.status().ToString());
    }
    results.push_back(std::move(result).value());
    WarmServingShapes(pipeline.get(), data);
    phase->pipelines.push_back(std::move(pipeline));
  }
  phase->setup_s.push_back(SecondsSince(start));
  phase->fit_s.push_back(fit);
  phase->fit_wall_ms += fit * 1e3;

  // Steady-state batched scoring, outside the set-up time. Rounds visit
  // every task in turn, so a slow spell of the host hits all tasks alike;
  // the throughput is rows over summed time, so slow and fast spells of
  // the host count by their length (a median would flip between them).
  std::vector<std::vector<double>> times(phase->data.size());
  for (int k = 0; k < kScoreRounds; ++k) {
    for (size_t t = 0; t < phase->data.size(); ++t) {
      const auto t1 = Clock::now();
      auto again = phase->pipelines[t]->Predict(phase->data[t].heldout);
      times[t].push_back(MsBetween(t1, Clock::now()));
      if (!again.ok() || !SameResult(*again, results[t])) {
        fails->push_back("replayed Predict of " + phase->data[t].task +
                         " differs from its first Predict");
      }
    }
  }
  double capture = 0.0;
  double score_ms = 0.0;
  for (size_t t = 0; t < phase->data.size(); ++t) {
    capture += first_ms[t] - Median(times[t]);
    for (double ms : times[t]) {
      score_ms += ms;
      phase->score_rows +=
          static_cast<double>(phase->data[t].heldout.dim(0));
    }
  }
  phase->score_ms += score_ms;
  phase->capture_ms.push_back(capture);
  std::fprintf(stderr,
               "set-up %d on cpu %d: %.3f s, fit %.3f s, scoring %.1f ms\n",
               rep, pin.cpu(), phase->setup_s.back(), fit, score_ms);

  for (size_t t = 0; t < results.size(); ++t) {
    ScoreInto(phase->data[t], results[t], &phase->quality);
    if (!phase->results.empty() &&
        !SameResult(phase->results[t], results[t])) {
      fails->push_back("fixture " + phase->data[t].task +
                       " is not deterministic across set-ups");
    }
  }
  phase->results = std::move(results);
}

FixturePhase RunFixturePhase(int setups, Tracer* tracer,
                             std::vector<std::string>* fails) {
  FixturePhase phase;
  for (int rep = 0; rep < setups; ++rep) {
    SetUpOnce(&phase, tracer, fails);
  }
  const Quality& q = phase.quality;
  if (!(q.accuracy > 0.5)) {
    fails->push_back("classification accuracy " + std::to_string(q.accuracy) +
                     " is not above 0.5 (4 classes)");
  }
  if (!(q.forecast_mse > 0.0 && q.forecast_mse < 1.0)) {
    fails->push_back("forecast_mse " + std::to_string(q.forecast_mse) +
                     " is outside (0, 1)");
  }
  if (!(q.anomaly_f1 > 0.0)) {
    fails->push_back("anomaly_f1 is 0");
  }
  return phase;
}

// --- request ladder ----------------------------------------------------------

/// Per-rung outcome for the primary request kind.
struct RungStats {
  double rate = 0.0;
  int64_t sent = 0;
  int64_t ok = 0;
  std::vector<double> ok_ms;      // latency of ok replies, from due time
  std::vector<double> ok_due_s;   // due time of each of those replies
  std::vector<int64_t> ok_windows;  // model outputs each of those carried
  std::vector<double> model_ms;   // ok replies that carried a model output
  double goodput = 0.0;           // ok replies per second of the rung
  double lag_p99_ms = 0.0;        // generator lateness
  double p99_all_ms = 0.0;        // failures counted as missing the limit
  bool backlog = false;
  bool pass = false;
  // Server-side view of the rung.
  double server_p50_ms = 0.0;     // request-weighted per-model p50
  int64_t server_requests = 0;
  int64_t batches = 0;
  int64_t batch1 = 0;
};

struct Ladder {
  std::vector<RungStats> rungs;
  std::vector<double> lag_ms;
  std::vector<double> stats_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  serve::ServeStats::AdmissionSnapshot admission;
};

/// Folds one step into the ladder totals; returns the primary-kind stats.
RungStats Analyze(const std::vector<Request>& reqs, const StepResult& step,
                  double rate, bool windows_mark_model, Ladder* ladder) {
  RungStats rung;
  rung.rate = rate;
  std::vector<double> all_ms;
  double last_ok_s = 0.0;
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Reply& r = step.replies[i];
    const bool ok = r.answered && r.ok;
    ladder->attempted += 1;
    ladder->failed += ok ? 0 : 1;
    if (reqs[i].kind == kStats && ok) {
      ladder->stats_ms.push_back(r.latency_ms);
    }
    if (reqs[i].kind != kPrimary) {
      continue;
    }
    rung.sent += 1;
    if (!ok) {
      all_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    rung.ok += 1;
    rung.ok_ms.push_back(r.latency_ms);
    rung.ok_due_s.push_back(reqs[i].due_s);
    rung.ok_windows.push_back(r.windows);
    all_ms.push_back(r.latency_ms);
    if (!windows_mark_model || r.windows > 0) {
      rung.model_ms.push_back(r.latency_ms);
    }
    last_ok_s = std::max(last_ok_s, reqs[i].due_s + r.latency_ms / 1e3);
  }
  ladder->lag_ms.insert(ladder->lag_ms.end(), step.send_lag_ms.begin(),
                        step.send_lag_ms.end());
  rung.goodput = last_ok_s > 0.0 ? static_cast<double>(rung.ok) / last_ok_s
                                 : 0.0;
  rung.p99_all_ms = Quantile(all_ms, 0.99);
  rung.lag_p99_ms = Quantile(step.send_lag_ms, 0.99);
  rung.backlog = BacklogGrows(step.outstanding);
  rung.pass = rung.sent > 0 && rung.p99_all_ms <= kLatencyLimitMs &&
              static_cast<double>(rung.sent - rung.ok) <=
                  kMaxFailShare * static_cast<double>(rung.sent) &&
              !rung.backlog;
  std::fprintf(stderr,
               "rung %.0f/s: sent %lld ok %lld p50 %.3f ms p99 %.3f ms "
               "p99(all) %.3f ms goodput %.1f/s backlog %s lag p99 %.3f ms "
               "-> %s\n",
               rate, static_cast<long long>(rung.sent),
               static_cast<long long>(rung.ok), Quantile(rung.ok_ms, 0.5),
               Quantile(rung.ok_ms, 0.99), rung.p99_all_ms, rung.goodput,
               rung.backlog ? "grows" : "flat", rung.lag_p99_ms,
               rung.pass ? "pass" : "fail");
  return rung;
}

/// In the traced run, one span per answered primary request, from its due
/// time to its reply, carrying the request's id.
void RecordClientSpans(const std::vector<Request>& reqs,
                       const StepResult& step, const std::string& name,
                       int64_t first_id, Tracer* tracer) {
  if (!tracer->enabled()) {
    return;
  }
  for (size_t i = 0; i < reqs.size(); ++i) {
    const Reply& r = step.replies[i];
    if (reqs[i].kind != kPrimary || !r.answered) {
      continue;
    }
    const auto due = step.start + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(
                                          reqs[i].due_s));
    const auto done = due + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double, std::milli>(
                                    r.latency_ms));
    tracer->Record(name, due, done, first_id + static_cast<int64_t>(i));
  }
}

/// Reads and resets the server's per-rung counters into `rung`.
void TakeServerStats(serve::SocketServer* server, RungStats* rung,
                     Ladder* ladder) {
  serve::ServeStats* stats = server->stats();
  double weighted = 0.0;
  for (const std::string& model : TaskNames()) {
    const auto snap = stats->Snapshot(model);
    rung->server_requests += snap.requests;
    rung->batches += snap.batches;
    if (auto it = snap.batch_histogram.find(1);
        it != snap.batch_histogram.end()) {
      rung->batch1 += it->second;
    }
    weighted += snap.p50_ms * static_cast<double>(snap.requests);
  }
  if (rung->server_requests > 0) {
    rung->server_p50_ms = weighted / static_cast<double>(rung->server_requests);
  }
  const auto adm = stats->Admission();
  ladder->admission.accepted += adm.accepted;
  ladder->admission.shed += adm.shed;
  ladder->admission.timed_out += adm.timed_out;
  stats->Reset();
}

void AddStatsPolls(double duration, int conn, std::vector<Request>* reqs) {
  for (double t = 0.0; t < duration; t += 1.0 / kStatsPollHz) {
    Request r;
    r.due_s = t;
    r.conn = conn;
    r.kind = kStats;
    r.payload = "{\"op\":\"stats\"}\n";
    reqs->push_back(std::move(r));
  }
}

void SortByDue(std::vector<Request>* reqs, std::vector<int64_t>* tags) {
  std::vector<size_t> order(reqs->size());
  for (size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return (*reqs)[a].due_s < (*reqs)[b].due_s;
  });
  std::vector<Request> sorted_reqs;
  std::vector<int64_t> sorted_tags;
  for (size_t i : order) {
    sorted_reqs.push_back(std::move((*reqs)[i]));
    sorted_tags.push_back((*tags)[i]);
  }
  *reqs = std::move(sorted_reqs);
  *tags = std::move(sorted_tags);
}

// --- output checks -------------------------------------------------------------

/// Compares one served task output (a parsed reply or stream window) with a
/// direct Predict, bitwise.
bool MatchesDirect(const json::JsonValue& served,
                   const core::TaskResult& direct, std::string* why) {
  const auto floats_equal = [](const json::JsonValue& v, const Tensor& t) {
    if (!v.is_object() || !v.Contains("data")) {
      return false;
    }
    const std::vector<float> got = v.at("data").ToFloats();
    return static_cast<int64_t>(got.size()) == t.numel() &&
           std::memcmp(got.data(), t.data(), got.size() * sizeof(float)) == 0;
  };
  if (!direct.labels.empty() &&
      (!served.Contains("labels") ||
       served.at("labels").ToInts() != direct.labels)) {
    *why = "labels";
    return false;
  }
  if (direct.predictions.numel() > 0 &&
      (!served.Contains("predictions") ||
       !floats_equal(served.at("predictions"), direct.predictions))) {
    *why = "predictions";
    return false;
  }
  if (direct.scores.numel() > 0 &&
      (!served.Contains("scores") ||
       !floats_equal(served.at("scores"), direct.scores))) {
    *why = "scores";
    return false;
  }
  return true;
}

/// Parse and encode timings of the workload's own request and reply lines.
struct JsonProbe {
  std::vector<double> parse_us;
  std::vector<double> encode_us;
  std::vector<double> request_bytes;

  void Add(const std::string& request_body, const std::string& reply_body) {
    for (const std::string* text : {&request_body, &reply_body}) {
      const auto t0 = Clock::now();
      auto parsed = json::Parse(*text);
      parse_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
      if (parsed.ok() && text == &reply_body) {
        const auto t1 = Clock::now();
        const std::string dumped = parsed->Dump();
        encode_us.push_back(MsBetween(t1, Clock::now()) * 1e3);
      }
    }
    request_bytes.push_back(static_cast<double>(request_body.size()));
  }
};

/// The JSON body of a request payload (drops HTTP framing and newlines).
std::string BodyOf(const std::string& payload) {
  const size_t head = payload.find("\r\n\r\n");
  std::string body =
      head == std::string::npos ? payload : payload.substr(head + 4);
  while (!body.empty() && body.back() == '\n') {
    body.pop_back();
  }
  return body;
}

// --- traced-run probes ---------------------------------------------------------

/// Times StreamState::Feed over `chunks` for a state of the stream config.
struct FeedStateProbe {
  std::vector<double> feed_us;
  int64_t feeds = 0;
  int64_t windows = 0;
};

serve::StreamState::Config StreamConfig() {
  serve::StreamState::Config config;
  config.model = "anomaly_detection";
  config.channels = 2;
  config.window = kAnomalyWindow;
  config.stride = kStride;
  config.normalize = true;
  config.quantile = 0.995;  // the server's default for anomaly models
  config.score_window = serve::StreamingLimits().score_window;
  return config;
}

/// One session's input series: a seeded anomaly series long enough for
/// `points` points per channel.
Tensor SessionSeries(uint64_t seed, int64_t points) {
  units::data::AnomalyOpts opts;
  opts.num_channels = 2;
  opts.total_length = std::max<int64_t>(points, 4 * kAnomalyWindow);
  opts.num_anomalies = std::max<int64_t>(1, opts.total_length / 400);
  opts.seed = seed;
  return units::data::MakeAnomalySeries(opts).series;  // [2, L]
}

Tensor ChunkOf(const Tensor& series, int64_t begin, int64_t len) {
  const int64_t length = series.dim(1);
  std::vector<float> flat(static_cast<size_t>(2 * len));
  for (int64_t d = 0; d < 2; ++d) {
    for (int64_t t = 0; t < len; ++t) {
      flat[static_cast<size_t>(d * len + t)] = series[d * length + begin + t];
    }
  }
  return Tensor::FromVector({2, len}, std::move(flat));
}

// --- the workloads ---------------------------------------------------------------

struct ServerHandle {
  ServerHandle() = default;
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  serve::ModelRegistry registry;
  std::unique_ptr<serve::SocketServer> server;
  std::thread loop;

  void Start(FixturePhase* phase) {
    for (size_t t = 0; t < phase->pipelines.size(); ++t) {
      const units::Status status =
          registry.Add(TaskNames()[t], std::move(phase->pipelines[t]));
      if (!status.ok()) {
        Die("registry: " + status.ToString());
      }
    }
    serve::SocketServer::Options options;
    options.port = 0;  // ephemeral: concurrent runs never collide
    options.batcher.max_batch_size = kMaxBatch;
    options.batcher.max_delay_ms = 1.0;
    options.batcher.num_workers = kBatcherWorkers;
    // No shedding and no deadlines: overload shows as latency and backlog,
    // so a run completes every request it sends.
    options.admission.max_queue = 1 << 20;
    options.streaming.max_sessions = kStreamConns * kSessionsPerConn;
    server = std::make_unique<serve::SocketServer>(&registry, options);
    const units::Status status = server->Start();
    if (!status.ok()) {
      Die("SocketServer::Start: " + status.ToString());
    }
    loop = std::thread([this] { server->Run(); });
  }

  void Stop() {
    if (server != nullptr) {
      server->Shutdown();
      loop.join();
      server.reset();
    }
  }

  ~ServerHandle() { Stop(); }

  std::shared_ptr<serve::ServableModel> Model(const std::string& name) {
    auto model = registry.Get(name);
    if (!model.ok()) {
      Die("registry lookup " + name);
    }
    return std::move(model).value();
  }
};

struct LadderRun {
  Ladder ladder;
  OpTotals step_ops;  // tensor ops run while requests were in flight
  JsonProbe json;
  std::vector<double> transport_ndjson_ms;  // per rung: client p50 - server p50
  std::vector<double> transport_http_ms;
  FeedStateProbe feed_state;
  // Span indices recorded while the reference rung ran.
  size_t ref_spans_begin = 0;
  size_t ref_spans_end = 0;
};

/// Runs one load step; in the traced run, adds the library ops it caused
/// to run->step_ops. The output checks' direct Predicts run outside it.
StepResult RunTimedStep(LoadGenerator* gen, const std::vector<Request>& reqs,
                        LadderRun* run, Tracer* tracer) {
  const OpTotals before = tracer->enabled() ? ReadOps() : OpTotals();
  StepResult step = gen->RunStep(reqs, kDrainCapS);
  if (tracer->enabled()) {
    AddDiff(before, ReadOps(), &run->step_ops);
  }
  return step;
}

/// serve: predicts at each rung, model mix 50% classification, 25%
/// forecasting, 25% anomaly_detection; connections 0-1 NDJSON, 2 HTTP,
/// 3 the operator.
void RunServeLadder(const RunConfig& config, const FixturePhase& phase,
                    ServerHandle* handle, LadderRun* run,
                    std::vector<std::string>* fails, Tracer* tracer,
                    const std::function<void()>& before_last_rung) {
  LoadGenerator gen(handle->server->bound_port(),
                    {Proto::kNdjson, Proto::kNdjson, Proto::kHttp,
                     Proto::kNdjson});
  std::map<std::pair<size_t, int64_t>, std::string> values_cache;
  int64_t next_id = 0;
  for (size_t s = 0; s < kServeLadder.size(); ++s) {
    if (s + 1 == kServeLadder.size()) {
      before_last_rung();
    }
    const Rung& rung = kServeLadder[s];
    const double duration = rung.share * config.seconds;
    SplitMix rng(config.seed * 0x100000001B3ULL + s);
    std::vector<Request> reqs;
    std::vector<int64_t> tags;  // task * 2^32 + row, or -1
    for (double due : PoissonSchedule(rung.rate, duration,
                                      config.seed * 7919 + s)) {
      const double u = rng.Uniform();
      const size_t task = u < 0.5 ? 0 : (u < 0.75 ? 1 : 2);
      const Tensor& x = phase.data[task].heldout;
      const int64_t row = static_cast<int64_t>(
          rng.Below(static_cast<uint64_t>(x.dim(0))));
      std::string& values = values_cache[{task, row}];
      if (values.empty()) {
        values = SeriesJson(x.data() + row * x.dim(1) * x.dim(2), x.dim(1),
                            x.dim(2), 0, x.dim(2));
      }
      Request r;
      r.due_s = due;
      r.conn = static_cast<int>(rng.Below(3));
      r.kind = kPrimary;
      r.keep_body = rng.Below(kKeepOneIn) == 0;
      const std::string body = "\"model\":\"" + TaskNames()[task] +
                               "\",\"values\":" + values +
                               ",\"id\":" + std::to_string(next_id++) + "}";
      r.payload = r.conn == 2 ? HttpPredict("{" + body)
                              : "{\"op\":\"predict\"," + body + "\n";
      reqs.push_back(std::move(r));
      tags.push_back(static_cast<int64_t>(task << 32) + row);
    }
    AddStatsPolls(duration, 3, &reqs);
    tags.resize(reqs.size(), -1);
    SortByDue(&reqs, &tags);

    if (s == kServeReference) {
      run->ref_spans_begin = tracer->size();
    }
    const StepResult step = RunTimedStep(&gen, reqs, run, tracer);
    if (s == kServeReference) {
      run->ref_spans_end = tracer->size();
    }
    RecordClientSpans(reqs, step, "client.predict", run->ladder.attempted,
                      tracer);
    RungStats stats = Analyze(reqs, step, rung.rate, false, &run->ladder);
    TakeServerStats(handle->server.get(), &stats, &run->ladder);

    std::vector<double> ndjson_ms;
    std::vector<double> http_ms;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const Reply& reply = step.replies[i];
      if (reqs[i].kind != kPrimary || !reply.answered || !reply.ok) {
        continue;
      }
      (reqs[i].conn == 2 ? http_ms : ndjson_ms).push_back(reply.latency_ms);
      if (!reqs[i].keep_body) {
        continue;
      }
      run->json.Add(BodyOf(reqs[i].payload), reply.body);
      const size_t task = static_cast<size_t>(tags[i] >> 32);
      const int64_t row = tags[i] & 0xffffffff;
      auto direct = handle->Model(TaskNames()[task])
                        ->Predict(RowOf(phase.data[task].heldout, row));
      auto served = json::Parse(reply.body);
      std::string why;
      if (!direct.ok() || !served.ok() ||
          !MatchesDirect(*served, *direct, &why)) {
        fails->push_back("served " + TaskNames()[task] + " row " +
                         std::to_string(row) +
                         " differs from a direct Predict (" + why + ")");
      }
    }
    run->transport_ndjson_ms.push_back(Median(ndjson_ms) -
                                       stats.server_p50_ms);
    run->transport_http_ms.push_back(Median(http_ms) - stats.server_p50_ms);
    run->ladder.rungs.push_back(std::move(stats));
    if (step.unanswered > 0) {
      fails->push_back(std::to_string(step.unanswered) +
                       " requests unanswered after the drain cap");
      break;
    }
  }
}

/// stream: kStreamConns NDJSON connections with kSessionsPerConn sessions
/// each on the anomaly model, fed kChunk points per feed round-robin over
/// the sessions; connection kStreamConns carries HTTP predicts of the
/// classification model, the next one is the operator.
void RunStreamLadder(const RunConfig& config, const FixturePhase& phase,
                     ServerHandle* handle, LadderRun* run,
                     std::vector<std::string>* fails, Tracer* tracer,
                     const std::function<void()>& before_last_rung) {
  const int http_conn = kStreamConns;
  const int op_conn = kStreamConns + 1;
  std::vector<Proto> protos(kStreamConns, Proto::kNdjson);
  protos.push_back(Proto::kHttp);
  protos.push_back(Proto::kNdjson);
  LoadGenerator gen(handle->server->bound_port(), protos);

  const int sessions = kStreamConns * kSessionsPerConn;
  // Open every session (untimed; not part of any rung).
  std::vector<Request> opens;
  for (int s = 0; s < sessions; ++s) {
    Request r;
    r.conn = s % kStreamConns;
    r.keep_body = true;
    r.payload = "{\"op\":\"stream_open\",\"model\":\"anomaly_detection\","
                "\"window\":" + std::to_string(kAnomalyWindow) +
                ",\"stride\":" + std::to_string(kStride) + "}\n";
    opens.push_back(std::move(r));
  }
  const StepResult opened = RunTimedStep(&gen, opens, run, tracer);
  std::vector<int64_t> stream_ids(static_cast<size_t>(sessions), -1);
  for (int s = 0; s < sessions; ++s) {
    run->ladder.attempted += 1;
    auto reply = json::Parse(opened.replies[static_cast<size_t>(s)].body);
    if (!opened.replies[static_cast<size_t>(s)].ok || !reply.ok() ||
        !reply->Contains("stream")) {
      run->ladder.failed += 1;
      fails->push_back("stream_open failed");
      return;
    }
    stream_ids[static_cast<size_t>(s)] = reply->at("stream").AsInt();
  }

  // Feeds per session over the whole ladder, so each session's series is
  // generated once, long enough.
  int64_t total_feeds = 0;
  for (const Rung& rung : kStreamLadder) {
    total_feeds += std::llround(rung.rate * rung.share * config.seconds);
  }
  const int64_t points_per_session =
      (total_feeds / sessions + 1) * kChunk;
  std::vector<Tensor> series;
  for (int s = 0; s < sessions; ++s) {
    series.push_back(SessionSeries(config.seed * 131 + static_cast<uint64_t>(s),
                                   points_per_session));
  }
  // Sessions whose every feed reply is kept and replayed offline.
  SplitMix pick(config.seed ^ 0xA5A5A5A5ULL);
  const int checked_a = static_cast<int>(pick.Below(sessions));
  const int checked_b = (checked_a + 1 + static_cast<int>(pick.Below(
                                             sessions - 1))) % sessions;
  std::vector<std::vector<std::string>> kept(static_cast<size_t>(sessions));

  std::vector<int64_t> fed(static_cast<size_t>(sessions), 0);
  int64_t next_session = 0;
  for (size_t s = 0; s < kStreamLadder.size(); ++s) {
    if (s + 1 == kStreamLadder.size()) {
      before_last_rung();
    }
    const Rung& rung = kStreamLadder[s];
    const double duration = rung.share * config.seconds;
    std::vector<Request> reqs;
    std::vector<int64_t> expected;  // windows a feed completes, or -1
    std::vector<int64_t> tags;      // session, or -1
    for (double due : PoissonSchedule(rung.rate, duration,
                                      config.seed * 7919 + 100 + s)) {
      const int session = static_cast<int>(next_session++ % sessions);
      const size_t si = static_cast<size_t>(session);
      const int64_t begin = fed[si];
      fed[si] += kChunk;
      const auto emitted = [](int64_t points) {
        return points >= kAnomalyWindow
                   ? (points - kAnomalyWindow) / kStride + 1
                   : 0;
      };
      Request r;
      r.due_s = due;
      r.conn = session % kStreamConns;
      r.kind = kPrimary;
      r.keep_body = session == checked_a || session == checked_b;
      r.payload = "{\"op\":\"stream_feed\",\"stream\":" +
                  std::to_string(stream_ids[si]) + ",\"values\":" +
                  SeriesJson(series[si].data(), 2, series[si].dim(1), begin,
                             kChunk) +
                  "}\n";
      reqs.push_back(std::move(r));
      expected.push_back(emitted(fed[si]) - emitted(begin));
      tags.push_back(session);
    }
    SplitMix rng(config.seed * 0x100000001B3ULL + 100 + s);
    const Tensor& cls = phase.data[0].heldout;
    for (double due : PoissonSchedule(kBackgroundHz, duration,
                                      config.seed * 7919 + 200 + s)) {
      const int64_t row =
          static_cast<int64_t>(rng.Below(static_cast<uint64_t>(cls.dim(0))));
      Request r;
      r.due_s = due;
      r.conn = http_conn;
      r.kind = kBackground;
      r.payload = HttpPredict(
          "{\"model\":\"classification\",\"values\":" +
          SeriesJson(cls.data() + row * cls.dim(1) * cls.dim(2), cls.dim(1),
                     cls.dim(2), 0, cls.dim(2)) +
          "}");
      reqs.push_back(std::move(r));
      expected.push_back(-1);
      tags.push_back(-1);
    }
    AddStatsPolls(duration, op_conn, &reqs);
    expected.resize(reqs.size(), -1);
    tags.resize(reqs.size(), -1);
    // Keep `expected` aligned with the sorted order through the tags.
    std::vector<int64_t> order_tags(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      order_tags[i] = static_cast<int64_t>(i);
    }
    SortByDue(&reqs, &order_tags);

    if (s == kStreamReference) {
      run->ref_spans_begin = tracer->size();
    }
    const StepResult step = RunTimedStep(&gen, reqs, run, tracer);
    if (s == kStreamReference) {
      run->ref_spans_end = tracer->size();
    }
    RecordClientSpans(reqs, step, "client.feed", run->ladder.attempted,
                      tracer);
    RungStats stats = Analyze(reqs, step, rung.rate, true, &run->ladder);
    TakeServerStats(handle->server.get(), &stats, &run->ladder);

    std::vector<double> window_ms;
    std::vector<double> http_ms;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const Reply& reply = step.replies[i];
      const size_t orig = static_cast<size_t>(order_tags[i]);
      if (!reply.answered || !reply.ok) {
        continue;
      }
      if (reqs[i].kind == kBackground) {
        http_ms.push_back(reply.latency_ms);
        continue;
      }
      if (reqs[i].kind != kPrimary) {
        continue;
      }
      if (reply.windows > 0) {
        window_ms.push_back(reply.latency_ms);
      }
      if (reply.windows != expected[orig]) {
        fails->push_back("a feed completed " + std::to_string(reply.windows) +
                         " windows, expected " +
                         std::to_string(expected[orig]));
      }
      if (reqs[i].keep_body) {
        kept[static_cast<size_t>(tags[orig])].push_back(reply.body);
        run->json.Add(BodyOf(reqs[i].payload), reply.body);
      }
    }
    run->transport_ndjson_ms.push_back(Median(window_ms) -
                                       stats.server_p50_ms);
    run->transport_http_ms.push_back(Median(http_ms) - stats.server_p50_ms);
    run->ladder.rungs.push_back(std::move(stats));
    if (step.unanswered > 0) {
      fails->push_back(std::to_string(step.unanswered) +
                       " requests unanswered after the drain cap");
      return;
    }
  }

  // Offline replay of the checked sessions: the same chunks through a
  // fresh StreamState, each completed window through a direct Predict, and
  // the same rolling threshold recalibration, must give the served windows.
  auto model = handle->Model("anomaly_detection");
  for (int session : {checked_a, checked_b}) {
    const size_t si = static_cast<size_t>(session);
    serve::StreamState state(StreamConfig());
    size_t feed = 0;
    for (int64_t begin = 0; begin < fed[si] && feed < kept[si].size();
         begin += kChunk, ++feed) {
      const Tensor chunk = ChunkOf(series[si], begin, kChunk);
      const auto t0 = Clock::now();
      auto windows = state.Feed(chunk);
      run->feed_state.feed_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
      run->feed_state.feeds += 1;
      run->feed_state.windows += static_cast<int64_t>(windows.size());
      auto served = json::Parse(kept[si][feed]);
      if (!served.ok() || !served->Contains("windows") ||
          served->at("windows").size() != windows.size()) {
        fails->push_back("stream replay: feed reply does not parse or has "
                         "the wrong window count");
        return;
      }
      for (size_t w = 0; w < windows.size(); ++w) {
        const json::JsonValue& got = served->at("windows")[w];
        auto direct = model->Predict(windows[w].values);
        if (!direct.ok()) {
          Die("replay Predict: " + direct.status().ToString());
        }
        core::TaskResult expect = std::move(direct).value();
        const auto threshold =
            state.RecalibrateLabels(expect.scores, &expect.labels);
        std::string why;
        const bool threshold_ok =
            threshold.has_value() == got.Contains("threshold") &&
            (!threshold.has_value() ||
             static_cast<float>(got.at("threshold").AsNumber()) == *threshold);
        if (got.at("index").AsInt() != windows[w].index || !threshold_ok ||
            !MatchesDirect(got, expect, &why)) {
          fails->push_back("stream window " +
                           std::to_string(windows[w].index) +
                           " differs from the offline replay (" +
                           (threshold_ok ? why : "threshold") + ")");
          return;
        }
      }
    }
  }
}

/// StreamState::Feed timing on seeded stream chunks, for the serve
/// workload's traced run (it opens no streams itself).
void ProbeFeedState(uint64_t seed, FeedStateProbe* probe) {
  const Tensor series = SessionSeries(seed * 131, 512 * kChunk);
  serve::StreamState state(StreamConfig());
  for (int64_t begin = 0; begin + kChunk <= series.dim(1); begin += kChunk) {
    const Tensor chunk = ChunkOf(series, begin, kChunk);
    const auto t0 = Clock::now();
    const auto windows = state.Feed(chunk);
    probe->feed_us.push_back(MsBetween(t0, Clock::now()) * 1e3);
    probe->feeds += 1;
    probe->windows += static_cast<int64_t>(windows.size());
  }
}

/// Task-wrapper Predict spans at batch 1, 4 and 16 rows, on every model.
void ProbePredictBatches(const FixturePhase& phase, ServerHandle* handle) {
  for (int64_t rows : {1, 4, 16}) {
    for (size_t t = 0; t < TaskNames().size(); ++t) {
      const Tensor& x = phase.data[t].heldout;
      std::vector<Tensor> parts;
      for (int64_t r = 0; r < rows; ++r) {
        parts.push_back(RowOf(x, r % x.dim(0)));
      }
      const Tensor batch = units::ops::Concat(parts, 0);
      auto model = handle->Model(TaskNames()[t]);
      for (int k = 0; k < 10; ++k) {
        if (!model->Predict(batch).ok()) {
          Die("probe Predict failed");
        }
      }
    }
  }
}

double OpMs(const OpTotals& ops, const std::vector<const char*>& names) {
  double ms = 0.0;
  for (const char* name : names) {
    if (auto it = ops.find(name); it != ops.end()) {
      ms += static_cast<double>(it->second.total_ns) / 1e6;
    }
  }
  return ms;
}

double OpCalls(const OpTotals& ops, const std::vector<const char*>& names) {
  double calls = 0.0;
  for (const char* name : names) {
    if (auto it = ops.find(name); it != ops.end()) {
      calls += static_cast<double>(it->second.calls);
    }
  }
  return calls;
}

/// tensor.<prefix>.{matmul,transpose,im2col,softmax,sum}_{ms,calls} and
/// the share of `wall_ms` no instrumented tensor op accounts for.
void AddTensorMetrics(const std::string& prefix, const OpTotals& ops,
                      double wall_ms, std::vector<Metric>* out) {
  const std::vector<std::pair<std::string, std::vector<const char*>>> groups = {
          {"matmul",
           {"tensor.MatMul", "tensor.BatchedMatMul", "tensor.NaiveMatMul",
            "tensor.NaiveBatchedMatMul"}},
          {"transpose", {"tensor.Transpose"}},
          {"im2col", {"tensor.Im2Col1D", "tensor.Col2Im1D"}},
          {"softmax",
           {"tensor.Softmax", "tensor.LogSoftmax", "tensor.SoftmaxBackward",
            "tensor.LogSoftmaxBackward"}},
          {"sum", {"tensor.Sum", "tensor.SumAll"}},
      };
  for (const auto& [name, members] : groups) {
    out->push_back({"tensor." + prefix + "." + name + "_ms",
                    OpMs(ops, members), "ms"});
    out->push_back({"tensor." + prefix + "." + name + "_calls",
                    OpCalls(ops, members), "count"});
  }
  double attributed = 0.0;
  for (const auto& [name, stat] : ops) {
    if (name.rfind("tensor.", 0) == 0) {
      attributed += static_cast<double>(stat.total_ns) / 1e6;
    }
  }
  // Every attention kernel runs one tensor.Transpose inside its own scope
  // (tensor_ops.cc); those nested calls are taken out again, at the mean
  // Transpose time, so their time is not counted twice.
  const double transposes = OpCalls(ops, {"tensor.Transpose"});
  if (transposes > 0.0) {
    const double nested = OpCalls(
        ops, {"tensor.AttentionForwardTrain", "tensor.AttentionBackward",
              "tensor.AttentionForwardStreaming"});
    attributed -= OpMs(ops, {"tensor.Transpose"}) *
                  std::min(1.0, nested / transposes);
  }
  out->push_back({"tensor." + prefix + ".unattributed_share",
                  wall_ms > 0.0 ? std::max(0.0, 1.0 - attributed / wall_ms)
                                : 0.0,
                  "ratio"});
}

double SpanTotalMs(const std::map<std::string, SpanAggregate>& agg,
                   const std::string& name) {
  auto it = agg.find(name);
  return it == agg.end() ? 0.0 : it->second.total_ms;
}

/// Nanoseconds one Begin/End pair costs, for trace.overhead.
double SpanCostNs() {
  Tracer probe(true);
  constexpr int kSpans = 20000;
  const auto t0 = Clock::now();
  for (int i = 0; i < kSpans; ++i) {
    probe.End(probe.Begin("probe"));
  }
  return MsBetween(t0, Clock::now()) * 1e6 / kSpans;
}

}  // namespace

bool IsWorkload(const std::string& name) {
  return name == "serve" || name == "stream";
}

RunOutcome RunWorkload(const RunConfig& config, Tracer* tracer) {
  RunOutcome outcome;
  const auto run_start = Clock::now();
  if (tracer->enabled()) {
    units::base::OpStatsRegistry::SetEnabled(true);
    units::base::OpStatsRegistry::Global()->Reset();
  }

  FixturePhase phase = RunFixturePhase(
      tracer->enabled() ? kSetupReps + kLateSetupReps : kSetupReps, tracer,
      &outcome.check_failures);
  const size_t spans_after_setup = tracer->size();

  ServerHandle handle;
  handle.Start(&phase);
  LadderRun run;
  // The plain run's late set-ups, while the server idles between the two
  // bursts of the top rung. They rebuild phase.data, which the ladder
  // reads; the fixture data is the same in every set-up.
  const auto late_setups = [&] {
    if (tracer->enabled()) {
      return;
    }
    for (int rep = 0; rep < kLateSetupReps; ++rep) {
      SetUpOnce(&phase, tracer, &outcome.check_failures);
    }
  };
  const bool stream = config.workload == "stream";
  if (stream) {
    RunStreamLadder(config, phase, &handle, &run, &outcome.check_failures,
                    tracer, late_setups);
  } else {
    RunServeLadder(config, phase, &handle, &run, &outcome.check_failures,
                   tracer, late_setups);
  }
  if (tracer->enabled()) {
    if (!stream) {
      ProbeFeedState(config.seed, &run.feed_state);
    }
    ProbePredictBatches(phase, &handle);
  }
  handle.Stop();
  outcome.attempted = run.ladder.attempted;
  outcome.failed = run.ladder.failed;

  const std::vector<RungStats>& rungs = run.ladder.rungs;
  const size_t ref = stream ? kStreamReference : kServeReference;
  if (rungs.size() <= ref) {
    outcome.check_failures.push_back("the ladder stopped before its "
                                     "reference rung");
    return outcome;
  }
  // goodput_rps is the capacity the server showed on the top rung, which
  // offers more than it can serve: ok replies over the time from the
  // rung's start to its last ok reply, averaged over the rung's two
  // bursts. Which rungs passed is a diagnostic.
  double goodput = 0.0;
  double highest_passing = 0.0;
  for (const RungStats& rung : rungs) {
    if (rung.pass) {
      highest_passing = rung.rate;
    }
  }
  std::fprintf(stderr, "highest passing rung: %.0f/s\n", highest_passing);
  if (rungs.size() == (stream ? kStreamLadder : kServeLadder).size()) {
    std::vector<double> bursts;
    for (const RungStats& rung : rungs) {
      if (rung.rate != rungs.back().rate) {
        continue;
      }
      bursts.push_back(rung.goodput);
      if (!rung.backlog) {
        std::fprintf(stderr,
                     "warning: the top rung built no backlog, so goodput_rps "
                     "reads its offered rate, not the server's capacity\n");
      }
    }
    goodput = Mean(bursts);
  }
  const RungStats& reference = rungs[ref];
  if (reference.lag_p99_ms > kMaxSendLagMs) {
    outcome.check_failures.push_back(
        "the load generator ran late: p99 send lag " +
        std::to_string(reference.lag_p99_ms) + " ms at the reference rung");
  }
  if (std::FILE* f = std::fopen((config.out_dir + "/reference_rung.tsv").c_str(),
                                "w")) {
    std::fprintf(f, "due_s\tlatency_ms\twindows\n");
    for (size_t i = 0; i < reference.ok_ms.size(); ++i) {
      std::fprintf(f, "%.6f\t%.6f\t%lld\n", reference.ok_due_s[i],
                   reference.ok_ms[i],
                   static_cast<long long>(reference.ok_windows[i]));
    }
    std::fclose(f);
  }
  const double lag_p99 = Quantile(run.ladder.lag_ms, 0.99);

  if (!tracer->enabled()) {
    outcome.metrics = {
        {"setup_s", SetUpMedian(phase.setup_s), "s"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"fit_s", SetUpMedian(phase.fit_s), "s"},
        {"score_rows_per_s", phase.score_rows / (phase.score_ms / 1e3),
         "1/s"},
        {"accuracy", phase.quality.accuracy, "ratio"},
        {"forecast_mse", phase.quality.forecast_mse, "mse"},
        {"anomaly_f1", phase.quality.anomaly_f1, "ratio"},
        {"goodput_rps", goodput, "1/s"},
        {"ok_ratio",
         reference.sent > 0 ? static_cast<double>(reference.ok) /
                                  static_cast<double>(reference.sent)
                            : 0.0,
         "ratio"},
    };
    return outcome;
  }

  // --- traced run: per-layer metrics --------------------------------------
  const auto agg = tracer->Aggregate();
  const double reps = static_cast<double>(phase.setup_s.size());
  std::vector<Metric>& m = outcome.metrics;
  m.push_back({"core.pretrain_s", SpanTotalMs(agg, "core.pretrain") / 1e3 / reps,
               "s"});
  m.push_back({"core.finetune_s",
               SpanTotalMs(agg, "core.finetune") / 1e3 / reps, "s"});
  m.push_back({"core.template_fit_s.tcn",
               SpanTotalMs(agg, "core.template_fit.tcn") / 1e3 / reps, "s"});
  m.push_back({"core.template_fit_s.transformer",
               SpanTotalMs(agg, "core.template_fit.transformer") / 1e3 / reps,
               "s"});
  m.push_back({"core.task_fit_s", SpanTotalMs(agg, "core.task_fit") / 1e3 / reps,
               "s"});
  {
    // Encode spans of the set-ups only (fine-tuning and first captures).
    const std::vector<Span> spans = tracer->Snapshot();
    double encode_ms = 0.0;
    for (size_t i = 0; i < spans_after_setup && i < spans.size(); ++i) {
      if (spans[i].name == "core.encode") {
        encode_ms += static_cast<double>(spans[i].end_ns - spans[i].start_ns) /
                     1e6;
      }
    }
    m.push_back({"core.encode_ms", encode_ms / reps, "ms"});
  }

  const StepReplay& replay = phase.replay;
  const double steps = static_cast<double>(std::max<int64_t>(1, replay.steps));
  m.push_back({"nn.forward_ms", replay.forward_ms / steps, "ms"});
  m.push_back({"autograd.backward_ms", replay.backward_ms / steps, "ms"});
  m.push_back({"optim.step_ms", replay.step_ms / steps, "ms"});
  m.push_back({"data.next_ms", replay.next_ms / steps, "ms"});
  // Each set-up was followed by a replay of the steps of its Pretrain
  // calls: the share of those calls' measured wall time the steps explain.
  const double pretrain_ms = SpanTotalMs(agg, "core.pretrain");
  m.push_back({"fit.step_coverage",
               pretrain_ms > 0.0 ? replay.parts_ms() / pretrain_ms : 0.0,
               "ratio"});

  AddTensorMetrics("fit", phase.fit_ops, phase.fit_wall_ms, &m);
  AddTensorMetrics("serve", run.step_ops, OpMs(run.step_ops, {"serve.batch"}),
                   &m);

  units::plan::PlanCacheStats plans;
  for (const std::string& name : TaskNames()) {
    auto model = handle.registry.Get(name);
    if (!model.ok()) {
      continue;
    }
    const auto s = (*model)->pipeline()->GetPlanCacheStats();
    plans.arena_bytes_max = std::max(plans.arena_bytes_max, s.arena_bytes_max);
    plans.fused_sweeps += s.fused_sweeps;
    plans.planned_chunks += s.planned_chunks;
    plans.dynamic_chunks += s.dynamic_chunks;
  }
  m.push_back({"plan.capture_ms", Median(phase.capture_ms), "ms"});
  m.push_back({"plan.planned_chunk_ratio",
               plans.planned_chunks + plans.dynamic_chunks > 0
                   ? static_cast<double>(plans.planned_chunks) /
                         static_cast<double>(plans.planned_chunks +
                                             plans.dynamic_chunks)
                   : 0.0,
               "ratio"});
  m.push_back({"plan.arena_bytes_max",
               static_cast<double>(plans.arena_bytes_max), "bytes"});
  m.push_back({"plan.fused_sweeps", static_cast<double>(plans.fused_sweeps),
               "count"});

  for (int64_t rows : {1, 4, 16}) {
    m.push_back({"core.predict_us_per_row.b" + std::to_string(rows),
                 Median(tracer->DurationsMs("core.task_predict", rows,
                                            spans_after_setup)) *
                     1e3 /
                     static_cast<double>(rows),
                 "us"});
  }

  m.push_back({"serve.mean_batch_size",
               reference.batches > 0
                   ? static_cast<double>(reference.server_requests) /
                         static_cast<double>(reference.batches)
                   : 0.0,
               "rows"});
  m.push_back({"serve.batch1_share",
               reference.batches > 0
                   ? static_cast<double>(reference.batch1) /
                         static_cast<double>(reference.batches)
                   : 0.0,
               "ratio"});
  {
    // Server-side latency minus execute time at the reference rung: the
    // task-wrapper Predict spans recorded while that rung ran.
    const std::vector<Span> spans = tracer->Snapshot();
    std::vector<double> exec_ms;
    for (size_t i = run.ref_spans_begin; i < run.ref_spans_end; ++i) {
      if (spans[i].name == "core.task_predict") {
        exec_ms.push_back(
            static_cast<double>(spans[i].end_ns - spans[i].start_ns) / 1e6);
      }
    }
    m.push_back({"serve.queue_wait_ms",
                 reference.server_p50_ms - Median(exec_ms), "ms"});
  }
  m.push_back({"serve.transport_ms.ndjson",
               run.transport_ndjson_ms[ref], "ms"});
  m.push_back({"serve.transport_ms.http", run.transport_http_ms[ref], "ms"});
  m.push_back({"serve.accepted",
               static_cast<double>(run.ladder.admission.accepted), "count"});
  m.push_back({"serve.shed", static_cast<double>(run.ladder.admission.shed),
               "count"});
  m.push_back({"serve.timed_out",
               static_cast<double>(run.ladder.admission.timed_out), "count"});
  m.push_back({"serve.stats_op_ms", Median(run.ladder.stats_ms), "ms"});
  m.push_back({"serve.stream.feed_state_us", Median(run.feed_state.feed_us),
               "us"});
  m.push_back({"serve.stream.windows_per_feed",
               run.feed_state.feeds > 0
                   ? static_cast<double>(run.feed_state.windows) /
                         static_cast<double>(run.feed_state.feeds)
                   : 0.0,
               "ratio"});
  m.push_back({"json.parse_us", Median(run.json.parse_us), "us"});
  m.push_back({"json.encode_us", Median(run.json.encode_us), "us"});
  m.push_back({"json.request_bytes", Mean(run.json.request_bytes), "bytes"});
  m.push_back({"client.p50_ms", Quantile(reference.ok_ms, 0.5), "ms"});
  m.push_back({"client.p99_ms", Quantile(reference.ok_ms, 0.99), "ms"});
  m.push_back({"client.model_mean_ms", Mean(reference.model_ms), "ms"});
  m.push_back({"client.model_p50_ms", Quantile(reference.model_ms, 0.5),
               "ms"});
  m.push_back({"client.model_p99_ms", Quantile(reference.model_ms, 0.99),
               "ms"});
  m.push_back({"base.spin_1t", config.spin_1t, "Mops/s"});
  m.push_back({"base.spin_nt", config.spin_nt, "Mops/s"});
  m.push_back({"loadgen.send_lag_p99_ms", lag_p99, "ms"});
  m.push_back({"trace.overhead",
               SpanCostNs() * static_cast<double>(tracer->size()) /
                   (SecondsSince(run_start) * 1e9),
               "ratio"});
  return outcome;
}

}  // namespace unitsbench
