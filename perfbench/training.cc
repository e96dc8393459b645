// train_dar_beer, and the training-layer measurements every traced run
// takes (the serve workloads train their model in set-up).
#include <cmath>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "core/trainer.h"
#include "data/dataloader.h"
#include "eval/experiment.h"
#include "harness.h"
#include "host.h"
#include "obs/trace.h"
#include "optim/adam.h"
#include "optim/clip.h"
#include "stats.h"

namespace perfbench {

namespace {

namespace core = dar::core;
namespace ag = dar::ag;

/// Set-ups per round of train_dar_beer's set-up. Its set-up (dataset
/// generation and embedding construction) takes about 2 ms, so one reading
/// is mostly scheduler noise. The untraced run takes a round before every
/// Fit and one after the last and reports their total time over their
/// count: on the reference host set-ups run in a fast (about 1.7 ms) or a
/// slow (about 2.2 ms) mode for stretches of a round, so a run's median
/// jumped with its mix of modes (11 % quartile spread over ten runs),
/// while the mean moves with the mix smoothly (5.6 %).
constexpr int kSetupsPerRound = 300;

/// obs.trace_overhead_pct on training: untraced/traced pairs of one
/// training step, and the overhead the traced run accepts.
constexpr int kTracePairs = 16;
constexpr double kMaxTraceOverheadPct = 10.0;

/// The DAR properties a trained model must show on the test split.
constexpr double kMinAccuracy = 0.6;  ///< chance is 0.5 (balanced classes)
constexpr double kSparsityBandLow = 0.5;   ///< selected share >= 0.5 alpha
constexpr double kSparsityBandHigh = 1.5;  ///< selected share <= 1.5 alpha

/// Spins a fixed time per training batch: the canary of compare.py's
/// self-check, attached only with --canary 1.
class CanaryObserver : public dar::obs::TrainObserver {
 public:
  void OnBatch(const dar::obs::BatchTelemetry&) override {
    SpinFor(kCanaryBatchUs);
  }
  bool WantsRationaleShift() const override { return false; }
};

/// Recomputes the test-split F1 and selected share from EvalMaskConst with
/// the benchmark's own overlap code, cross-checks them with
/// eval::EvaluateOnTest, and checks DAR's rationale properties. Returns
/// the F1.
double CheckTrainedModel(core::RationalizerBase& model, const Corpus& corpus,
                         Report& report) {
  model.SetTraining(false);
  Overlap overlap;
  int64_t correct = 0, total = 0;
  dar::data::DataLoader loader(corpus.dataset.test, corpus.config.batch_size,
                               /*shuffle=*/false);
  for (const dar::data::Batch& batch : loader.Sequential()) {
    const dar::Tensor mask = model.EvalMaskConst(batch);
    const dar::Tensor logits = model.PredictLogitsConst(batch, mask);
    for (int64_t i = 0; i < batch.batch_size(); ++i) {
      std::vector<uint8_t> selected, gold;
      for (int64_t t = 0; t < batch.max_len(); ++t) {
        if (batch.valid.at(i, t) == 0.0f) continue;
        selected.push_back(mask.at(i, t) > 0.5f);
        gold.push_back(batch.rationales[static_cast<size_t>(i)]
                                       [static_cast<size_t>(t)]);
      }
      overlap.Add(selected, gold);
      const int64_t predicted = logits.at(i, 1) > logits.at(i, 0) ? 1 : 0;
      correct += predicted == batch.labels[static_cast<size_t>(i)];
      ++total;
    }
  }
  const dar::eval::MethodResult reference =
      dar::eval::EvaluateOnTest(model, corpus.dataset);
  const double accuracy = static_cast<double>(correct) / total;
  const double alpha = corpus.config.sparsity_target;
  char what[256];
  std::snprintf(what, sizeof(what),
                "test F1 %.6f / selected share %.6f agree with "
                "EvaluateOnTest (%.6f / %.6f)",
                overlap.F1(), overlap.SelectedShare(), reference.rationale.f1,
                reference.rationale.sparsity);
  report.Check(std::fabs(overlap.F1() - reference.rationale.f1) <= 1e-4 &&
                   std::fabs(overlap.SelectedShare() -
                             reference.rationale.sparsity) <= 1e-4,
               what);
  std::snprintf(what, sizeof(what),
                "selected share %.4f lies within [%.1f, %.1f] x alpha (%.4f)",
                overlap.SelectedShare(), kSparsityBandLow, kSparsityBandHigh,
                alpha);
  report.Check(overlap.SelectedShare() >= kSparsityBandLow * alpha &&
                   overlap.SelectedShare() <= kSparsityBandHigh * alpha,
               what);
  std::snprintf(what, sizeof(what),
                "rationale accuracy %.4f is above %.2f (chance 0.5) and "
                "agrees with EvaluateOnTest (%.4f)",
                accuracy, kMinAccuracy, reference.rationale_acc);
  report.Check(accuracy > kMinAccuracy &&
                   std::fabs(accuracy - reference.rationale_acc) <= 1e-6,
               what);
  return overlap.F1();
}

/// Per-phase times of a benchmark-side replay of core::Fit.
struct ReplayTimes {
  double prepare_s = 0.0;
  double forward_ms = 0.0;
  double backward_ms = 0.0;
  double step_ms = 0.0;
  double eval_ms = 0.0;
  int64_t batches = 0;
  int64_t epochs = 0;
};

/// core::Fit (src/core/trainer.cc), call for call through the layers'
/// public functions, with a timer around each layer: the model's Prepare
/// and TrainLoss (core), Backward (autograd), gradient clipping plus the
/// Adam step (optim) and the dev evaluation (eval). It draws the same
/// random numbers in the same order, so it must end on Fit's parameters;
/// MeasureTrainingLayers checks that it does.
ReplayTimes ReplayFit(core::RationalizerBase& model,
                      const dar::datasets::SyntheticDataset& dataset) {
  const core::TrainConfig& config = model.config();
  ReplayTimes times;
  Clock::time_point start = Clock::now();
  model.Prepare(dataset);
  times.prepare_s = SecondsSince(start);

  std::vector<ag::Variable> params = model.TrainableParameters();
  dar::optim::Adam adam(params, {.lr = config.lr});
  dar::data::DataLoader loader(dataset.train, config.batch_size,
                               /*shuffle=*/true);
  float best_dev_acc = 0.0f;
  int64_t best_epoch = -1;
  std::vector<dar::Tensor> best_values;
  for (int64_t epoch = 0; epoch < config.epochs; ++epoch) {
    model.SetTraining(true);
    for (const dar::data::Batch& batch : loader.Epoch(model.rng())) {
      adam.ZeroGrad();
      const Clock::time_point t0 = Clock::now();
      ag::Variable loss = model.TrainLoss(batch);
      const Clock::time_point t1 = Clock::now();
      loss.Backward();
      const Clock::time_point t2 = Clock::now();
      dar::optim::ClipGradNorm(params, config.grad_clip);
      adam.Step();
      const Clock::time_point t3 = Clock::now();
      times.forward_ms += std::chrono::duration<double, std::milli>(t1 - t0).count();
      times.backward_ms += std::chrono::duration<double, std::milli>(t2 - t1).count();
      times.step_ms += std::chrono::duration<double, std::milli>(t3 - t2).count();
      ++times.batches;
    }
    model.SetTraining(false);
    start = Clock::now();
    const float dev_acc =
        core::EvaluateRationaleAccuracy(model, dataset.dev, config.batch_size);
    times.eval_ms += 1e3 * SecondsSince(start);
    ++times.epochs;
    if (dev_acc >= best_dev_acc || best_epoch < 0) {
      best_dev_acc = dev_acc;
      best_epoch = epoch;
      best_values.clear();
      for (const ag::Variable& p : params) best_values.push_back(p.value());
    }
  }
  for (size_t i = 0; i < best_values.size(); ++i) {
    params[i].mutable_value() = best_values[i];
  }
  model.SetTraining(false);
  return times;
}

/// The cost of kDetailed spans on training: one training step (TrainLoss
/// and Backward on the first training batch, without an optimizer step so
/// the parameters stay put) timed with spans off and at kDetailed in
/// alternating pairs, the order flipped every pair so host drift cancels.
/// Returns the median paired difference as a percentage of the median
/// untraced step.
double TrainingTraceOverheadPct(core::RationalizerBase& model,
                                const Corpus& corpus) {
  const dar::obs::TraceLevel level = dar::obs::GetTraceLevel();
  std::vector<ag::Variable> params = model.TrainableParameters();
  dar::optim::Adam adam(params, {.lr = corpus.config.lr});
  dar::data::DataLoader loader(corpus.dataset.train, corpus.config.batch_size,
                               /*shuffle=*/false);
  const dar::data::Batch batch = loader.Sequential().front();
  model.SetTraining(true);
  auto step_ms = [&](dar::obs::TraceLevel at) {
    dar::obs::SetTraceLevel(at);
    adam.ZeroGrad();
    const Clock::time_point start = Clock::now();
    model.TrainLoss(batch).Backward();
    return 1e3 * SecondsSince(start);
  };
  step_ms(dar::obs::TraceLevel::kDetailed);  // warm both paths once
  step_ms(dar::obs::TraceLevel::kOff);
  std::vector<double> off, diff;
  for (int pair = 0; pair < kTracePairs; ++pair) {
    double off_ms, on_ms;
    if (pair % 2 == 0) {
      off_ms = step_ms(dar::obs::TraceLevel::kOff);
      on_ms = step_ms(dar::obs::TraceLevel::kDetailed);
    } else {
      on_ms = step_ms(dar::obs::TraceLevel::kDetailed);
      off_ms = step_ms(dar::obs::TraceLevel::kOff);
    }
    off.push_back(off_ms);
    diff.push_back(on_ms - off_ms);
  }
  adam.ZeroGrad();
  model.SetTraining(false);
  dar::obs::SetTraceLevel(level);
  return 100.0 * Median(diff) / Median(off);
}

}  // namespace

TracedFit MeasureTrainingLayers(const Corpus& corpus, Report& report) {
  const dar::obs::TraceLevel level = dar::obs::GetTraceLevel();
  dar::obs::SetTraceLevel(dar::obs::TraceLevel::kDetailed);
  const core::TrainConfig& config = corpus.config;
  const double examples = static_cast<double>(corpus.dataset.train.size());

  TracedFit traced;
  traced.model = NewModel(corpus);
  const SpanTotals batch_before = SpanNow("train.batch");
  const SpanTotals gru_before = SpanNow("gru.forward");
  const int64_t flops_before = MatmulFlopsNow();
  const ProcessUsage usage_before = ProcessUsage::Now();
  core::Fit(*traced.model, corpus.dataset);
  const ProcessUsage usage = ProcessUsage::Now() - usage_before;
  const int64_t flops = MatmulFlopsNow() - flops_before;
  const SpanTotals batch_after = SpanNow("train.batch");
  traced.gru_forward_us = SpanMeanUs(gru_before, SpanNow("gru.forward"));

  auto replayed = NewModel(corpus);
  const ReplayTimes replay = ReplayFit(*replayed, corpus.dataset);
  report.Check(ParameterDigest(*replayed) == ParameterDigest(*traced.model),
               "the benchmark's replay of Fit ends on Fit's parameters");
  dar::obs::SetTraceLevel(level);

  const double batches = static_cast<double>(replay.batches);
  const double forward_ms = replay.forward_ms / batches;
  const double backward_ms = replay.backward_ms / batches;
  const double step_ms = replay.step_ms / batches;
  const double batch_span_ms = 1e-3 * SpanMeanUs(batch_before, batch_after);
  // The replay and Fit are two runs minutes apart, so host drift between
  // them (up to about 20 % here) sets the tolerance; a phase the replay
  // missed or double-counted would be a larger share.
  char what[200];
  std::snprintf(what, sizeof(what),
                "forward + backward + step %.3f ms per batch agrees with the "
                "train.batch span %.3f ms within 35 %%",
                forward_ms + backward_ms + step_ms, batch_span_ms);
  report.Check(std::fabs(forward_ms + backward_ms + step_ms - batch_span_ms) <=
                   0.35 * batch_span_ms,
               what);

  report.Metric("tensor.matmul_gflop_per_epoch", "GFLOP",
                1e-9 * static_cast<double>(flops) /
                    static_cast<double>(config.epochs));
  report.Metric("autograd.backward_ms_per_batch", "ms", backward_ms);
  report.Metric("core.prepare_s", "s", replay.prepare_s);
  report.Metric("core.train_forward_ms_per_batch", "ms", forward_ms);
  report.Metric("optim.step_ms_per_batch", "ms", step_ms);
  report.Metric("eval.dev_eval_ms_per_epoch", "ms",
                replay.eval_ms / static_cast<double>(replay.epochs));
  report.Metric("process.minor_faults_per_example", "count",
                static_cast<double>(usage.minor_faults) /
                    (examples * static_cast<double>(config.epochs)));
  return traced;
}

void RunTrainDarBeer(const Options& options, Report& report) {
  // Set-up: dataset generation and embedding construction.
  std::vector<double> setup_s, generate_ms;
  std::optional<Corpus> corpus;
  auto setup_round = [&] {
    for (int i = 0; i < kSetupsPerRound; ++i) {
      corpus.reset();
      const Clock::time_point start = Clock::now();
      double generate = 0.0;
      corpus.emplace(MakeCorpus(options.seed, &generate));
      setup_s.push_back(SecondsSince(start));
      generate_ms.push_back(generate);
    }
  };
  setup_round();
  const double items_per_fit =
      static_cast<double>(corpus->config.epochs) *
      static_cast<double>(corpus->dataset.train.size());

  if (!options.trace) {
    // Whole Fits until the run time is used, at least two so the
    // parameters can be compared across them.
    CanaryObserver canary;
    std::vector<double> rates, op_ms;
    double cpu_s = 0.0, items = 0.0, f1 = 0.0;
    uint64_t digest = 0;
    const Clock::time_point start = Clock::now();
    while (report.attempted < 2 || SecondsSince(start) < options.seconds) {
      auto model = NewModel(*corpus);
      const ProcessUsage usage_before = ProcessUsage::Now();
      const Clock::time_point fit_start = Clock::now();
      core::Fit(*model, corpus->dataset, /*verbose=*/false,
                options.canary ? &canary : nullptr);
      const double fit_s = SecondsSince(fit_start);
      f1 = CheckTrainedModel(*model, *corpus, report);
      op_ms.push_back(1e3 * SecondsSince(fit_start));
      cpu_s += (ProcessUsage::Now() - usage_before).cpu_s();
      rates.push_back(items_per_fit / fit_s);
      items += items_per_fit;
      const uint64_t d = ParameterDigest(*model);
      if (report.attempted == 0) digest = d;
      report.Check(d == digest,
                   "parameters are bit-identical across repeated Fits");
      ++report.attempted;
      setup_round();
    }
    report.Metric("setup_s", "s", Mean(setup_s));
    report.Metric("peak_rss_mb", "MB", PeakRssMb());
    report.Metric("rationale_f1", "F1", f1);
    report.Metric("items_per_s", "1/s", Median(rates));
    report.Metric("p50_ms", "ms", Median(op_ms));
    report.Metric("cpu_ms_per_item", "ms", 1e3 * cpu_s / items);
    report.Note("fits", static_cast<double>(report.attempted));
    report.Note("setup_median_s", Median(setup_s));
    report.Note("alpha", corpus->config.sparsity_target);
    return;
  }

  // Traced run: an untraced Fit for the overhead baseline and the process
  // counters, then the traced Fit and its replay, then the trained model
  // served over the full stack.
  dar::obs::SetTraceLevel(dar::obs::TraceLevel::kOff);
  auto baseline = NewModel(*corpus);
  const ProcessUsage usage_before = ProcessUsage::Now();
  const Clock::time_point start = Clock::now();
  core::Fit(*baseline, corpus->dataset);
  const double fit_off_s = SecondsSince(start);
  const ProcessUsage usage = ProcessUsage::Now() - usage_before;

  TracedFit traced = MeasureTrainingLayers(*corpus, report);
  report.Check(ParameterDigest(*traced.model) == ParameterDigest(*baseline),
               "tracing leaves the trained parameters unchanged");
  CheckTrainedModel(*traced.model, *corpus, report);
  report.attempted = 2;
  const double overhead_pct = TrainingTraceOverheadPct(*baseline, *corpus);
  char what[160];
  std::snprintf(what, sizeof(what),
                "kDetailed spans cost %.2f %% of a training step, at most %.0f %%",
                overhead_pct, kMaxTraceOverheadPct);
  report.Check(overhead_pct <= kMaxTraceOverheadPct, what);

  report.Metric("datasets.generate_ms", "ms", Mean(generate_ms));
  report.Metric("nn.gru_forward_us", "us", traced.gru_forward_us);
  report.Metric("process.sys_share", "share", usage.sys_s / usage.cpu_s());
  report.Metric("process.cpu_util", "share",
                usage.cpu_s() / (fit_off_s * HostCpus()));
  report.Metric("obs.trace_overhead_pct", "%", overhead_pct);
  MeasureServingLayersOnTestSplit(*corpus, *traced.model, options, report);
}

}  // namespace perfbench
