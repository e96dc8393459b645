// perfbench: the repository's end-to-end and per-layer benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--canary <0|1>] [--workdir <dir>] [--git-sha <sha>]
//
//   perfbench --train-checkpoint <path>    (the serve set-up's child process)
//
// Run it through run.py, which builds it first. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones;
// the two lines before it give the host facts and the ungated numbers.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "harness.h"
#include "host.h"
#include "net/http.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

/// The metric names BENCHMARK.json declares; every run reports exactly
/// one set of them.
const std::vector<std::string> kEndToEnd = {
    "setup_s",     "peak_rss_mb", "rationale_f1",
    "items_per_s", "p50_ms",      "cpu_ms_per_item"};
const std::vector<std::string> kPerLayer = {
    "tensor.gemm_gflops",
    "tensor.matmul_mflop_per_req",
    "tensor.matmul_gflop_per_epoch",
    "autograd.backward_ms_per_batch",
    "autograd.tape_us_per_req",
    "nn.gru_forward_us",
    "core.gen_encoder_us",
    "core.mask_head_us",
    "core.pred_encoder_us",
    "core.logits_head_us",
    "core.prepare_s",
    "core.train_forward_ms_per_batch",
    "optim.step_ms_per_batch",
    "eval.dev_eval_ms_per_epoch",
    "datasets.generate_ms",
    "serve.encode_us",
    "serve.handle_us",
    "serve.enqueue_us",
    "serve.batch_collect_us",
    "serve.forward_us",
    "serve.batch_size_mean",
    "cache.encoder_hit_share",
    "cache.lookup_us",
    "cache.insert_us",
    "cache.evictions_per_req",
    "cache.bytes_mb",
    "net.parse_us",
    "net.json_us",
    "net.wire_us",
    "sync.contention_per_req",
    "sync.wait_us_per_req",
    "process.sys_share",
    "process.minor_faults_per_example",
    "process.minor_faults_per_req",
    "process.cpu_util",
    "obs.trace_overhead_pct",
};

[[noreturn]] void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <train_dar_beer|serve_unique_mixed|"
               "serve_repeat_short> --seed N --seconds S --trace 0|1 "
               "[--canary 0|1] [--workdir DIR] [--git-sha SHA]\n",
               argv0);
  std::exit(2);
}

std::string Number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

int Main(int argc, char** argv) {
  if (argc == 3 && std::strcmp(argv[1], "--train-checkpoint") == 0) {
    return TrainServedModel(argv[2]);
  }
  Options options;
  std::string git_sha = "unknown";
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--canary") {
      options.canary = std::strcmp(value, "0") != 0;
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--git-sha") {
      git_sha = value;
    } else {
      Usage(argv[0]);
    }
  }
  if (argc % 2 == 0 || !have_workload || options.seconds <= 0.0) Usage(argv[0]);

  dar::obs::SetTraceLevel(dar::obs::TraceLevel::kOff);
  const CpuJiffies jiffies_before = CpuJiffies::Now();
  Report report;
  if (options.workload == "train_dar_beer") {
    RunTrainDarBeer(options, report);
  } else if (options.workload == "serve_unique_mixed" ||
             options.workload == "serve_repeat_short") {
    RunServe(options, report);
  } else {
    Usage(argv[0]);
  }
  const double steal = StealShare(jiffies_before, CpuJiffies::Now());

  // The reported names must be exactly the declared set.
  const std::vector<std::string>& expected = options.trace ? kPerLayer : kEndToEnd;
  std::set<std::string> reported;
  for (const Report::Entry& m : report.metrics()) {
    if (!reported.insert(m.name).second || !std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s reported twice or not finite\n",
                   m.name.c_str());
      return 1;
    }
  }
  if (reported != std::set<std::string>(expected.begin(), expected.end())) {
    std::fprintf(stderr, "perfbench: reported metrics differ from the declared set\n");
    return 1;
  }

  std::printf("host {\"git_sha\": \"%s\", \"nproc\": %d, \"cpu_model\": \"%s\", "
              "\"steal_share\": %s, \"workload\": \"%s\", \"seed\": %llu, "
              "\"trace\": %d, \"attempted\": %lld, \"failed\": %lld}\n",
              dar::net::JsonEscape(git_sha).c_str(), HostCpus(),
              dar::net::JsonEscape(CpuModel()).c_str(), Number(steal).c_str(),
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.trace ? 1 : 0, static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed));
  std::string info = "info {";
  for (size_t i = 0; i < report.notes().size(); ++i) {
    const Report::Entry& note = report.notes()[i];
    info += (i ? ", \"" : "\"") + note.name + "\": " + Number(note.value);
  }
  std::printf("%s}\n", info.c_str());

  std::string metrics;
  for (const std::string& name : expected) {
    for (const Report::Entry& m : report.metrics()) {
      if (m.name != name) continue;
      if (!metrics.empty()) metrics += ", ";
      metrics += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
                 ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              report.correct() ? "true" : "false",
              static_cast<long long>(report.attempted),
              static_cast<long long>(report.failed), metrics.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
