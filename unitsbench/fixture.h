#ifndef UNITSBENCH_FIXTURE_H_
#define UNITSBENCH_FIXTURE_H_

// The three fixture pipelines every workload fits in its set-up: one per
// task (classification, forecasting, anomaly_detection), each with a
// tcn-backbone and a transformer-backbone template fused by concat, fitted
// from fixed seeds. The pipelines are assembled by hand (AddTemplate /
// SetFusion / SetTask) so every template, the fusion and the task sit
// behind a delegating wrapper that records spans in the traced run.

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "data/dataset.h"
#include "trace.h"

namespace unitsbench {

/// Model names, in fixture order; also the names served by the workloads.
inline const std::vector<std::string>& TaskNames() {
  static const std::vector<std::string> names = {
      "classification", "forecasting", "anomaly_detection"};
  return names;
}

/// Window length of the anomaly model, and so of every stream window.
constexpr int64_t kAnomalyWindow = 48;

/// Pre-training schedule of every fixture template.
constexpr int64_t kPretrainEpochs = 3;
constexpr int64_t kPretrainBatch = 32;

/// Training and held-out data of one task, generated from fixed seeds.
struct TaskData {
  std::string task;
  units::data::TimeSeriesDataset train;  // pre-training and fine-tuning
  units::Tensor heldout;                 // [N, D, T] scored after fitting
  std::vector<int64_t> heldout_labels;   // classification truth
  units::Tensor heldout_targets;         // forecasting truth [N, D, H]
  std::vector<int> heldout_points;       // anomaly truth, N * T points
};

std::vector<TaskData> MakeFixtureData();

/// Builds the wrapped, unfitted pipeline of one task.
std::unique_ptr<units::core::UnitsPipeline> BuildPipeline(
    const TaskData& data, Tracer* tracer);

/// Wall time of one Pretrain and one FineTune call.
struct FitTimes {
  double pretrain_s = 0.0;
  double finetune_s = 0.0;
};

/// Pretrain + FineTune, then EnsureReadyForServing. Aborts the run with a
/// structured error if the library reports a failure.
FitTimes FitPipeline(units::core::UnitsPipeline* pipeline,
                     const TaskData& data, Tracer* tracer);

/// Held-out quality of the three fitted pipelines.
struct Quality {
  double accuracy = 0.0;      // classification, share of rows correct
  double forecast_mse = 0.0;  // forecasting, mean squared error
  double anomaly_f1 = 0.0;    // anomaly detection, point-adjusted F1
};

/// Scores `result` (a Predict over data.heldout) against the truth.
void ScoreInto(const TaskData& data, const units::core::TaskResult& result,
               Quality* quality);

/// Stops the process with a structured error on stderr and exit code 1;
/// used for library failures, which invalidate the run.
[[noreturn]] void Die(const std::string& what);

}  // namespace unitsbench

#endif  // UNITSBENCH_FIXTURE_H_
