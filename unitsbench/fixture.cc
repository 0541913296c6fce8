#include "fixture.h"

#include <cstdio>
#include <cstdlib>
#include <utility>

#include "core/registry.h"
#include "data/synthetic.h"
#include "data/window.h"
#include "json/json.h"
#include "metrics/metrics.h"
#include "tensor/tensor_ops.h"

namespace unitsbench {

namespace core = units::core;
namespace data = units::data;
using units::Tensor;
using units::autograd::Variable;

void Die(const std::string& what) {
  units::json::JsonValue err = units::json::JsonValue::Object();
  err.Set("error", units::json::JsonValue::String(what));
  std::fprintf(stderr, "%s\n", err.Dump().c_str());
  std::fflush(stderr);
  std::_Exit(1);
}

namespace {

// --- delegating wrappers: one span per call into the wrapped object -------

class TracedTemplate : public core::PretrainTemplate {
 public:
  TracedTemplate(std::unique_ptr<core::PretrainTemplate> inner,
                 std::string backbone, Tracer* tracer)
      : inner_(std::move(inner)),
        fit_span_("core.template_fit." + backbone),
        tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  units::Status Fit(const Tensor& x) override {
    ScopedSpan span(tracer_, fit_span_);
    return inner_->Fit(x);
  }
  Tensor Transform(const Tensor& x) override { return inner_->Transform(x); }
  Tensor TransformPerTimestep(const Tensor& x) override {
    return inner_->TransformPerTimestep(x);
  }
  Variable Encode(const Variable& x) override {
    ScopedSpan span(tracer_, "core.encode");
    return inner_->Encode(x);
  }
  Variable EncodePerTimestep(const Variable& x) override {
    ScopedSpan span(tracer_, "core.encode");
    return inner_->EncodePerTimestep(x);
  }
  Variable BuildLoss(const Tensor& batch, units::Rng* rng) override {
    return inner_->BuildLoss(batch, rng);
  }
  int64_t repr_dim() const override { return inner_->repr_dim(); }
  units::nn::Module* encoder() override { return inner_->encoder(); }
  units::Status Initialize() override { return inner_->Initialize(); }
  const std::vector<float>& loss_history() const override {
    return inner_->loss_history();
  }

 private:
  std::unique_ptr<core::PretrainTemplate> inner_;
  std::string fit_span_;
  Tracer* tracer_;
};

class TracedFusion : public core::FeatureFusion {
 public:
  TracedFusion(std::unique_ptr<core::FeatureFusion> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  int64_t Initialize(const std::vector<int64_t>& in_dims,
                     units::Rng* rng) override {
    return inner_->Initialize(in_dims, rng);
  }
  Variable Transform(const std::vector<Variable>& zs) override {
    ScopedSpan span(tracer_, "core.fusion");
    return inner_->Transform(zs);
  }
  Variable TransformPerTimestep(const std::vector<Variable>& zs) override {
    ScopedSpan span(tracer_, "core.fusion");
    return inner_->TransformPerTimestep(zs);
  }
  int64_t fused_dim() const override { return inner_->fused_dim(); }
  int64_t fused_dim_per_timestep() const override {
    return inner_->fused_dim_per_timestep();
  }
  std::vector<Variable> Parameters() override { return inner_->Parameters(); }
  units::nn::Module* module() override { return inner_->module(); }

 private:
  std::unique_ptr<core::FeatureFusion> inner_;
  Tracer* tracer_;
};

class TracedTask : public core::AnalysisTask {
 public:
  TracedTask(std::unique_ptr<core::AnalysisTask> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::string name() const override { return inner_->name(); }
  units::Status Fit(core::UnitsPipeline* pipeline,
                    const data::TimeSeriesDataset& train) override {
    ScopedSpan span(tracer_, "core.task_fit");
    return inner_->Fit(pipeline, train);
  }
  units::Result<core::TaskResult> Predict(core::UnitsPipeline* pipeline,
                                          const Tensor& x) override {
    ScopedSpan span(tracer_, "core.task_predict", x.dim(0));
    return inner_->Predict(pipeline, x);
  }
  units::nn::Module* head() override { return inner_->head(); }
  units::Result<units::json::JsonValue> SaveState(
      core::UnitsPipeline* pipeline) override {
    return inner_->SaveState(pipeline);
  }
  units::Status LoadState(core::UnitsPipeline* pipeline,
                          const units::json::JsonValue& state) override {
    return inner_->LoadState(pipeline, state);
  }

 private:
  std::unique_ptr<core::AnalysisTask> inner_;
  Tracer* tracer_;
};

// --- fixed-seed fixture data ----------------------------------------------

constexpr uint64_t kFixtureSeed = 20240;

/// Rows [start, start + count) of a dataset, with labels/targets.
data::TimeSeriesDataset Rows(const data::TimeSeriesDataset& all,
                             int64_t start, int64_t count) {
  std::vector<int64_t> idx;
  for (int64_t i = start; i < start + count; ++i) {
    idx.push_back(i);
  }
  return all.Subset(idx);
}

/// Template objectives per task; the first gets the tcn backbone, the
/// second the transformer.
std::pair<std::string, std::string> TemplatesFor(const std::string& task) {
  if (task == "classification") {
    return {"whole_series_contrastive", "timestamp_contrastive"};
  }
  if (task == "forecasting") {
    return {"timestamp_contrastive", "masked_autoregression"};
  }
  return {"masked_autoregression", "timestamp_contrastive"};
}

}  // namespace

std::vector<TaskData> MakeFixtureData() {
  std::vector<TaskData> out;

  {
    data::ClassificationOpts opts;
    opts.num_samples = 256;
    opts.num_classes = 4;
    opts.num_channels = 3;
    opts.length = 48;
    opts.noise = 0.3f;
    opts.seed = kFixtureSeed + 1;
    const data::TimeSeriesDataset all = data::MakeClassificationDataset(opts);
    TaskData d;
    d.task = "classification";
    d.train = Rows(all, 0, 128);
    const data::TimeSeriesDataset held = Rows(all, 128, 128);
    d.heldout = held.values();
    d.heldout_labels = held.labels();
    out.push_back(std::move(d));
  }

  {
    data::ForecastSeriesOpts opts;
    opts.num_channels = 2;
    opts.total_length = 1400;
    opts.seed = kFixtureSeed + 2;
    const data::TimeSeriesDataset all =
        data::MakeForecastDataset(opts, /*input_len=*/48, /*horizon=*/12,
                                  /*stride=*/8);
    const int64_t n = all.num_samples();
    const int64_t n_train = n * 6 / 10;
    TaskData d;
    d.task = "forecasting";
    d.train = Rows(all, 0, n_train);
    const data::TimeSeriesDataset held = Rows(all, n_train, n - n_train);
    d.heldout = held.values();
    d.heldout_targets = held.targets();
    out.push_back(std::move(d));
  }

  {
    data::AnomalyOpts opts;
    opts.num_channels = 2;
    opts.total_length = kAnomalyWindow * 40;
    opts.num_anomalies = 16;
    opts.seed = kFixtureSeed + 3;
    TaskData d;
    d.task = "anomaly_detection";
    d.train = data::TimeSeriesDataset(data::SlidingWindows(
        data::MakeCleanSeries(opts), kAnomalyWindow, kAnomalyWindow / 2));
    const data::AnomalySeries test = data::MakeAnomalySeries(opts);
    d.heldout =
        data::SlidingWindows(test.series, kAnomalyWindow, kAnomalyWindow);
    const Tensor labels = data::SlidingLabelWindows(
        test.labels, kAnomalyWindow, kAnomalyWindow);
    for (int64_t i = 0; i < labels.numel(); ++i) {
      d.heldout_points.push_back(labels[i] > 0.5f ? 1 : 0);
    }
    out.push_back(std::move(d));
  }
  return out;
}

std::unique_ptr<core::UnitsPipeline> BuildPipeline(const TaskData& data,
                                                   Tracer* tracer) {
  const uint64_t seed = kFixtureSeed * 10 + data.task.size();
  auto pipeline = std::make_unique<core::UnitsPipeline>(
      data.train.num_channels(), seed);

  units::hpo::ParamSet pretrain;
  pretrain.SetInt("epochs", kPretrainEpochs);
  pretrain.SetInt("batch_size", kPretrainBatch);
  pretrain.SetInt("hidden_channels", 16);
  pretrain.SetInt("repr_dim", 16);
  pretrain.SetInt("num_blocks", 2);
  pretrain.SetInt("num_layers", 1);
  pretrain.SetInt("num_heads", 2);
  const auto [tcn_name, transformer_name] = TemplatesFor(data.task);
  uint64_t template_seed = seed;
  for (const auto& [name, backbone] :
       {std::pair{tcn_name, std::string("tcn")},
        std::pair{transformer_name, std::string("transformer")}}) {
    units::hpo::ParamSet params = pretrain;
    params.SetString("backbone", backbone);
    auto tmpl = core::MakePretrainTemplate(name, params,
                                           data.train.num_channels(),
                                           ++template_seed);
    if (!tmpl.ok()) {
      Die("template " + name + ": " + tmpl.status().ToString());
    }
    pipeline->AddTemplate(std::make_unique<TracedTemplate>(
        std::move(tmpl).value(), backbone, tracer));
  }

  units::hpo::ParamSet finetune;
  finetune.SetInt("epochs", 6);
  finetune.SetInt("batch_size", 16);
  auto fusion = core::MakeFusion("concat", finetune);
  auto task = core::MakeTask(data.task, finetune);
  if (!fusion.ok() || !task.ok()) {
    Die("fusion/task construction failed for " + data.task);
  }
  pipeline->SetFusion(
      std::make_unique<TracedFusion>(std::move(fusion).value(), tracer));
  pipeline->SetTask(
      std::make_unique<TracedTask>(std::move(task).value(), tracer));
  pipeline->SetFineTuneParams(finetune);
  return pipeline;
}

FitTimes FitPipeline(core::UnitsPipeline* pipeline, const TaskData& data,
                     Tracer* tracer) {
  FitTimes times;
  const auto start = Clock::now();
  {
    ScopedSpan span(tracer, "core.pretrain");
    const units::Status status = pipeline->Pretrain(data.train.values());
    if (!status.ok()) {
      Die("Pretrain " + data.task + ": " + status.ToString());
    }
  }
  const auto mid = Clock::now();
  {
    ScopedSpan span(tracer, "core.finetune");
    const units::Status status = pipeline->FineTune(data.train);
    if (!status.ok()) {
      Die("FineTune " + data.task + ": " + status.ToString());
    }
  }
  const auto end = Clock::now();
  times.pretrain_s = MsBetween(start, mid) / 1e3;
  times.finetune_s = MsBetween(mid, end) / 1e3;
  const units::Status ready = pipeline->EnsureReadyForServing();
  if (!ready.ok()) {
    Die("EnsureReadyForServing " + data.task + ": " + ready.ToString());
  }
  return times;
}

void ScoreInto(const TaskData& data, const core::TaskResult& result,
               Quality* quality) {
  namespace metrics = units::metrics;
  if (data.task == "classification") {
    quality->accuracy = metrics::Accuracy(data.heldout_labels, result.labels);
  } else if (data.task == "forecasting") {
    quality->forecast_mse =
        metrics::MeanSquaredError(data.heldout_targets, result.predictions);
  } else {
    std::vector<int> pred(result.labels.begin(), result.labels.end());
    if (pred.size() != data.heldout_points.size()) {
      Die("anomaly labels do not cover the held-out points");
    }
    quality->anomaly_f1 =
        metrics::PointwiseF1(data.heldout_points,
                             metrics::PointAdjust(data.heldout_points, pred))
            .f1;
  }
}

}  // namespace unitsbench
