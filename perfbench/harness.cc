#include "harness.h"

#include <cstdio>
#include <cstring>

#include "eval/experiment.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sync/mutex.h"

namespace perfbench {

namespace ds = dar::datasets;

void SpinFor(double us) {
  const Clock::time_point end =
      Clock::now() + std::chrono::nanoseconds(static_cast<int64_t>(us * 1e3));
  while (Clock::now() < end) {
  }
}

void Report::Metric(const std::string& name, const std::string& unit,
                    double value) {
  metrics_.push_back({name, unit, value});
}

void Report::Check(bool ok, const std::string& what) {
  if (ok) return;
  correct_ = false;
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

void Report::Note(const std::string& key, double value) {
  notes_.push_back({key, "", value});
}

ds::SplitSizes BenchSplit() { return {.train = 400, .dev = 100, .test = 120}; }

Corpus MakeCorpus(uint64_t seed, double* generate_ms) {
  const Clock::time_point start = Clock::now();
  Corpus corpus{ds::MakeBeerDataset(ds::BeerAspect::kAppearance, BenchSplit(),
                                    seed),
                {},
                {}};
  if (generate_ms != nullptr) *generate_ms = 1e3 * SecondsSince(start);
  dar::core::TrainConfig config;
  config.epochs = 8;
  config.pretrain_epochs = 4;
  config.batch_size = 32;
  config.lr = 2e-3f;
  corpus.config =
      config.WithSparsityTarget(corpus.dataset.AnnotationSparsity());
  corpus.embeddings = dar::eval::BuildEmbeddings(corpus.dataset, corpus.config);
  return corpus;
}

std::unique_ptr<dar::core::DarModel> NewModel(const Corpus& corpus) {
  return std::make_unique<dar::core::DarModel>(corpus.embeddings,
                                               corpus.config);
}

uint64_t ParameterDigest(dar::core::RationalizerBase& model) {
  uint64_t hash = 1469598103934665603ULL;
  for (const dar::nn::NamedModule& named : model.CheckpointModules()) {
    for (const dar::nn::NamedParameter& p : named.module->Parameters()) {
      const dar::Tensor& value = p.variable.value();
      const auto* bytes = reinterpret_cast<const unsigned char*>(value.data());
      for (size_t i = 0; i < static_cast<size_t>(value.numel()) * sizeof(float);
           ++i) {
        hash = (hash ^ bytes[i]) * 1099511628211ULL;
      }
    }
  }
  return hash;
}

std::vector<std::pair<std::string, std::vector<uint8_t>>> Sentences(
    const dar::data::Example& example, const dar::data::Vocabulary& vocab) {
  std::vector<std::pair<std::string, std::vector<uint8_t>>> sentences(1);
  for (size_t i = 0; i < example.tokens.size(); ++i) {
    auto& [text, gold] = sentences.back();
    const std::string& token = vocab.Token(example.tokens[i]);
    if (!text.empty()) text += ' ';
    text += token;
    gold.push_back(example.rationale.empty() ? 0 : example.rationale[i]);
    if (token == "." && i + 1 < example.tokens.size()) sentences.emplace_back();
  }
  return sentences;
}

SpanTotals SpanNow(const char* name) {
  dar::obs::FlushThreadSpans();
  dar::obs::Histogram& histogram =
      dar::obs::MetricsRegistry::Global().GetHistogram(
          std::string("span.") + name + ".us", dar::obs::DurationBucketsUs());
  return {histogram.count(), histogram.sum()};
}

double SpanMeanUs(const SpanTotals& before, const SpanTotals& after) {
  const int64_t count = after.count - before.count;
  return count > 0 ? (after.sum_us - before.sum_us) / static_cast<double>(count)
                   : 0.0;
}

int64_t MatmulFlopsNow() {
  return dar::obs::MetricsRegistry::Global()
      .GetCounter("matmul_flops_total")
      .value();
}

ContentionTotals ContentionTotals::Now() {
  ContentionTotals totals;
  for (const dar::sync::MutexContentionStats& stats :
       dar::sync::ContentionSnapshot()) {
    totals.waits += static_cast<int64_t>(stats.contention_total);
    totals.wait_us += static_cast<int64_t>(stats.wait_us_sum);
  }
  return totals;
}

}  // namespace perfbench
