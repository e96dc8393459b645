// Shared pieces of the perfbench binary: options, the report every
// workload fills, the training profile, and readers for the program's own
// counters and span histograms.
#ifndef DAR_PERFBENCH_HARNESS_H_
#define DAR_PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/dar.h"
#include "core/train_config.h"
#include "datasets/beer.h"
#include "datasets/synthetic_review.h"
#include "tensor/tensor.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Busy-waits for `us` microseconds: the canary's extra cost. A sleep
/// would overshoot by milliseconds on a loaded host.
void SpinFor(double us);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  /// false: the untraced run (end-to-end metrics); true: the traced run
  /// (per-layer metrics).
  bool trace = false;
  /// Adds the benchmark-side canary delays (compare.py's self-check).
  bool canary = false;
  /// Directory for checkpoint files.
  std::string workdir = ".";
};

/// Canary sizes, each larger than the bound of the metric it must trip on
/// the reference host (README, "Self-check"): 3 ms per request moved
/// serve_unique_mixed's 4 ms p50_ms by +55 % (the closed loop's lighter
/// load gives part of it back) and serve_repeat_short's by +680 %; 40 ms
/// per training batch (104 game batches per Fit) adds about 4.2 s to a
/// 6.4 s Fit, measured +61 % on p50_ms and -39 % on items_per_s.
inline constexpr double kCanaryRequestUs = 3000.0;
inline constexpr double kCanaryBatchUs = 40000.0;

/// What one run reports: metrics by name, the operation counts, output
/// checks, and ungated facts printed beside the numbers.
class Report {
 public:
  void Metric(const std::string& name, const std::string& unit, double value);
  /// Records an output or consistency check; a failed one makes the run
  /// incorrect and is printed to stderr.
  void Check(bool ok, const std::string& what);
  /// An ungated number printed on the run's "info" line.
  void Note(const std::string& key, double value);

  struct Entry {
    std::string name;
    std::string unit;
    double value = 0.0;
  };
  const std::vector<Entry>& metrics() const { return metrics_; }
  const std::vector<Entry>& notes() const { return notes_; }
  bool correct() const { return correct_; }

  int64_t attempted = 0;
  int64_t failed = 0;

 private:
  std::vector<Entry> metrics_;
  std::vector<Entry> notes_;
  bool correct_ = true;
};

// ---- Training profile ------------------------------------------------------

/// The bench profile (the quick profile of bench/bench_common.h): 400/100/120
/// reviews of the synthetic beer-appearance aspect, 4 pretraining and 8
/// game epochs, batch 32, lr 2e-3, alpha matched to the annotation level.
dar::datasets::SplitSizes BenchSplit();

/// A generated corpus plus the config and embedding table a model needs.
struct Corpus {
  dar::datasets::SyntheticDataset dataset;
  dar::core::TrainConfig config;
  dar::Tensor embeddings;
};

/// Generates the corpus of dataset seed `seed`. The model seed stays the
/// TrainConfig default (42), so runs on different seeds train the same
/// architecture from the same initialization on different reviews.
/// Returns the dataset-generation time through `generate_ms` when given.
Corpus MakeCorpus(uint64_t seed, double* generate_ms = nullptr);

std::unique_ptr<dar::core::DarModel> NewModel(const Corpus& corpus);

/// FNV-1a over every checkpointed parameter's bytes.
uint64_t ParameterDigest(dar::core::RationalizerBase& model);

/// One DAR review's text and gold rationale, split into sentences at ".".
std::vector<std::pair<std::string, std::vector<uint8_t>>> Sentences(
    const dar::data::Example& example, const dar::data::Vocabulary& vocab);

// ---- Program counters ------------------------------------------------------

/// Count and sum of the program's `span.<name>.us` histogram, after
/// flushing the calling thread's span buffer.
struct SpanTotals {
  int64_t count = 0;
  double sum_us = 0.0;
};
SpanTotals SpanNow(const char* name);
/// Mean span duration between two readings (0 when none was recorded).
double SpanMeanUs(const SpanTotals& before, const SpanTotals& after);

/// The program's matmul_flops_total counter.
int64_t MatmulFlopsNow();

/// Summed sync::Mutex contention over every lock name.
struct ContentionTotals {
  int64_t waits = 0;
  int64_t wait_us = 0;
  static ContentionTotals Now();
};

// ---- Workloads ---------------------------------------------------------------

void RunTrainDarBeer(const Options& options, Report& report);
void RunServe(const Options& options, Report& report);

/// The serve workloads' set-up training, run in a child process
/// (`perfbench --train-checkpoint <path>`): trains the served model and
/// writes its checkpoint to `checkpoint`. Returns the exit code.
int TrainServedModel(const std::string& checkpoint);

/// Training-layer metrics shared by every traced run: one Fit of a fresh
/// model of `corpus` under kDetailed spans plus a benchmark-side replay of
/// the same Fit, checked against each other. Returns the fitted model.
struct TracedFit {
  std::unique_ptr<dar::core::DarModel> model;
  double gru_forward_us = 0.0;
};
TracedFit MeasureTrainingLayers(const Corpus& corpus, Report& report);

/// Serving-layer metrics for train_dar_beer's traced run: `model` deployed
/// on the same stack as the serve workloads and sent the test split four
/// times (every text once, then three more times), then the layer probes.
void MeasureServingLayersOnTestSplit(const Corpus& corpus,
                                     dar::core::RationalizerBase& model,
                                     const Options& options, Report& report);

}  // namespace perfbench

#endif  // DAR_PERFBENCH_HARNESS_H_
