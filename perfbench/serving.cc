// The serve workloads: the stack examples/dar_serve_http deploys, driven
// over loopback HTTP by a closed-loop load generator, plus the serving
// layer probes every traced run takes.
#include <pthread.h>
#include <spawn.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <limits>
#include <mutex>
#include <optional>
#include <queue>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/trainer.h"
#include "harness.h"
#include "host.h"
#include "net/client.h"
#include "net/http.h"
#include "net/routes.h"
#include "net/server.h"
#include "obs/trace.h"
#include "serve/cache.h"
#include "serve/registry.h"
#include "serve/session.h"
#include "stats.h"
#include "sync/mutex.h"
#include "tensor/gemm.h"

namespace perfbench {

namespace {

namespace core = dar::core;
namespace net = dar::net;
namespace serve = dar::serve;

constexpr char kModelName[] = "beer-appearance";
constexpr char kPredictPath[] = "/v1/models/beer-appearance/predict";

/// The served model's corpus seed: fixed, so --seed changes only the
/// requests.
constexpr uint64_t kServedCorpusSeed = 42;
/// Set-ups per untraced serve run (each trains, checkpoints, restores).
constexpr int kServeSetups = 3;
/// Closed-loop warm-up before timing: fills the serving cache (the hot set
/// of serve_repeat_short; the eviction regime of serve_unique_mixed).
constexpr double kWarmupSeconds = 1.0;
/// Connections: at most one per processor and per server thread.
constexpr int kServerThreads = 4;
/// Every kSampleEvery-th response of each client, up to kSamplesPerClient,
/// is kept for the bit-exact comparison against the uncached reference.
constexpr int64_t kSampleEvery = 8;
constexpr int64_t kSamplesPerClient = 64;
/// The timed window is cut into slices of this length; the reported rate,
/// p50 and CPU per request are medians over slices, so a burst of host
/// steal in one slice does not move them.
constexpr double kSliceSeconds = 0.1;
/// The trace overhead a traced serve run accepts.
constexpr double kMaxTraceOverheadPct = 10.0;
/// Requests per layer probe.
constexpr int kProbeRequests = 200;
/// Bounds on the load generator's memory: the largest latencies each client
/// keeps for the tail percentile, the distinct texts a window scores
/// against their gold rationales, and the request lengths told apart.
constexpr size_t kTopLatencies = 2048;
constexpr size_t kScoredTexts = 4096;
constexpr size_t kMaxTrackedTokens = 4096;
/// serve_repeat_short: hot-set size and Zipf exponent.
constexpr int kHotSet = 128;
constexpr double kZipfExponent = 1.1;

std::string CheckpointPath(const Options& options) {
  return options.workdir + "/perfbench_" + std::to_string(getpid()) + ".ckpt";
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

[[noreturn]] void Fatal(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::exit(1);
}

uint32_t FloatBits(float f) {
  uint32_t bits;
  std::memcpy(&bits, &f, sizeof(bits));
  return bits;
}

// ---- The deployed stack ------------------------------------------------------

/// What examples/dar_serve_http deploys, on a loopback ephemeral port: the
/// checkpoint restored into a fresh InferenceSession, a ModelRegistry, a
/// Router with default batcher settings, the 64 MiB serving cache and
/// request tracing (250 ms tail threshold), and an HttpServer with default
/// settings.
class Stack {
 public:
  Stack(const Corpus& corpus, const std::string& checkpoint) {
    std::string error;
    session_ = serve::InferenceSession::FromCheckpoint(
        NewModel(corpus), corpus.dataset.vocab, checkpoint, &error);
    if (session_ == nullptr) Fatal("restore failed: " + error);
    net::RouterConfig router_config;
    router_config.tracing.enabled = true;
    router_config.tracing.tail.latency_threshold_us = 250 * 1000;
    router_config.serve.cache.enabled = true;
    router_config.serve.cache.capacity_bytes = size_t{64} << 20;
    router_ = std::make_unique<net::Router>(registry_, router_config);
    router_->ServeModel(kModelName, session_);
    net::ServerConfig server_config;
    server_config.metrics = &router_->metrics();
    server_ = std::make_unique<net::HttpServer>(router_->AsHandler(),
                                                server_config);
    if (!server_->Start(&error)) Fatal("server start failed: " + error);
  }
  ~Stack() { server_->Stop(); }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  int port() const { return server_->port(); }
  net::Router& router() { return *router_; }
  serve::InferenceSession& session() { return *session_; }
  /// The served session's counters for one cache tier.
  serve::CacheTierStats CacheStats(const char* tier) const {
    return router_->cache()->Stats(session_->cache_model_id(), tier);
  }

 private:
  // Declared so they are destroyed in dar_serve_http's order: server,
  // router, registry, session.
  std::shared_ptr<serve::InferenceSession> session_;
  serve::ModelRegistry registry_;
  std::unique_ptr<net::Router> router_;
  std::unique_ptr<net::HttpServer> server_;
};

/// An uncached session restored separately from the checkpoint: the
/// reference served responses are compared against.
std::unique_ptr<serve::InferenceSession> RestoreReference(
    const Corpus& corpus, const std::string& checkpoint) {
  std::string error;
  auto session = serve::InferenceSession::FromCheckpoint(
      NewModel(corpus), corpus.dataset.vocab, checkpoint, &error);
  if (session == nullptr) Fatal("reference restore failed: " + error);
  return session;
}

// ---- Requests ----------------------------------------------------------------

struct Request {
  std::string text;
  std::vector<uint8_t> gold;
  /// The same text was sent to this stack before.
  bool repeat = false;
};

/// Where the load generator's requests come from. Each client draws from
/// its own stream, so a client's k-th request depends only on the seed.
class RequestSource {
 public:
  virtual ~RequestSource() = default;
  /// The next request for `client`, or nothing when the source is spent.
  virtual std::optional<Request> Next(int client) = 0;
  /// Texts to send once before a probe so the probe sees the workload's
  /// cache state.
  virtual std::vector<Request> WarmSet() const { return {}; }
};

/// The sentence of `example` that carries its gold rationale.
std::pair<std::string, std::vector<uint8_t>> TargetSentence(
    const dar::data::Example& example, const dar::data::Vocabulary& vocab) {
  auto sentences = Sentences(example, vocab);
  size_t best = 0;
  int64_t best_gold = -1;
  for (size_t i = 0; i < sentences.size(); ++i) {
    const int64_t gold = std::count(sentences[i].second.begin(),
                                    sentences[i].second.end(), 1);
    if (gold > best_gold) {
      best_gold = gold;
      best = i;
    }
  }
  return sentences[best];
}

/// serve_unique_mixed: every request a distinct, freshly generated and
/// annotated review text. A quarter are one sentence (the target aspect's),
/// half one review, a quarter two to four reviews back to back. A text is
/// drawn again when its digest's bit is already set in a fixed bitmap, so
/// no text repeats and the source's memory does not grow with the number
/// of requests (a rare false match only costs a redraw).
class UniqueMixedSource : public RequestSource {
 public:
  UniqueMixedSource(const Corpus& corpus, uint64_t seed, int streams)
      : vocab_(corpus.dataset.vocab),
        generator_(dar::datasets::BeerReviewConfig(
                       dar::datasets::BeerAspect::kAppearance),
                   seed),
        seen_(kSeenBits / 64) {
    for (int c = 0; c < streams; ++c) {
      rngs_.emplace_back(seed ^ 0x5e4e5eedULL, 1000 + static_cast<uint64_t>(c));
    }
  }

  std::optional<Request> Next(int client) override {
    dar::Pcg32& rng = rngs_[static_cast<size_t>(client)];
    while (true) {
      Request request = Compose(rng);
      const uint64_t bit = std::hash<std::string>{}(request.text) % kSeenBits;
      std::lock_guard<std::mutex> lock(mu_);
      uint64_t& word = seen_[bit / 64];
      if ((word >> (bit % 64) & 1) == 0) {
        word |= uint64_t{1} << (bit % 64);
        return request;
      }
    }
  }

 private:
  static constexpr uint64_t kSeenBits = uint64_t{1} << 22;  // 512 KiB

  Request Compose(dar::Pcg32& rng) const {
    auto review = [&] {
      return generator_.MakeExample(vocab_, rng.Below(2), /*annotate=*/true,
                                    rng);
    };
    Request request;
    const uint32_t shape = rng.Below(100);
    if (shape < 25) {
      auto [text, gold] = TargetSentence(review(), vocab_);
      request.text = std::move(text);
      request.gold = std::move(gold);
      return request;
    }
    const uint32_t reviews = shape < 75 ? 1 : 2 + rng.Below(3);
    for (uint32_t r = 0; r < reviews; ++r) {
      const dar::data::Example example = review();
      for (size_t i = 0; i < example.tokens.size(); ++i) {
        if (!request.text.empty()) request.text += ' ';
        request.text += vocab_.Token(example.tokens[i]);
        request.gold.push_back(example.rationale[i]);
      }
    }
    return request;
  }

  const dar::data::Vocabulary& vocab_;
  dar::datasets::SyntheticReviewGenerator generator_;
  std::vector<dar::Pcg32> rngs_;
  std::mutex mu_;
  std::vector<uint64_t> seen_;
};

/// serve_repeat_short: one-sentence texts drawn with Zipf skew from a hot
/// set of kHotSet distinct sentences.
class RepeatShortSource : public RequestSource {
 public:
  RepeatShortSource(const Corpus& corpus, uint64_t seed, int streams)
      : seen_(kHotSet) {
    dar::datasets::SyntheticReviewGenerator generator(
        dar::datasets::BeerReviewConfig(dar::datasets::BeerAspect::kAppearance),
        seed);
    dar::Pcg32 rng(seed ^ 0x407e5e7ULL, 7);
    std::unordered_set<std::string> texts;
    while (static_cast<int>(hot_.size()) < kHotSet) {
      auto [text, gold] = TargetSentence(
          generator.MakeExample(corpus.dataset.vocab, rng.Below(2), true, rng),
          corpus.dataset.vocab);
      if (!texts.insert(text).second) continue;
      Request request;
      request.text = text;
      request.gold = gold;
      hot_.push_back(std::move(request));
    }
    double total = 0.0;
    for (int rank = 1; rank <= kHotSet; ++rank) {
      total += std::pow(rank, -kZipfExponent);
      cdf_.push_back(total);
    }
    for (double& c : cdf_) c /= total;
    for (int c = 0; c < streams; ++c) {
      rngs_.emplace_back(seed ^ 0x21bf5eedULL, 2000 + static_cast<uint64_t>(c));
    }
  }

  std::optional<Request> Next(int client) override {
    const double u = rngs_[static_cast<size_t>(client)].NextFloat();
    const size_t rank = std::min<size_t>(
        std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin(),
        hot_.size() - 1);
    Request request = hot_[rank];
    request.repeat = seen_[rank].exchange(true);
    return request;
  }

  std::vector<Request> WarmSet() const override { return hot_; }

 private:
  std::vector<Request> hot_;
  std::vector<double> cdf_;
  std::vector<dar::Pcg32> rngs_;
  std::vector<std::atomic<bool>> seen_;
};

/// A fixed list served `passes` times in order (train_dar_beer's traced
/// serving pass: the test split, four times).
class ListSource : public RequestSource {
 public:
  ListSource(std::vector<Request> requests, int passes)
      : requests_(std::move(requests)),
        total_(requests_.size() * static_cast<size_t>(passes)) {}

  std::optional<Request> Next(int) override {
    const size_t i = next_.fetch_add(1);
    if (i >= total_) return std::nullopt;
    Request request = requests_[i % requests_.size()];
    request.repeat = i >= requests_.size();
    return request;
  }

 private:
  std::vector<Request> requests_;
  size_t total_;
  std::atomic<size_t> next_{0};
};

std::unique_ptr<RequestSource> MakeSource(const std::string& workload,
                                          const Corpus& corpus, uint64_t seed,
                                          int streams) {
  // Request seeds are mixed away from the training seeds, so requests are
  // never the training reviews.
  const uint64_t request_seed = (seed + 1) * 0x9e3779b97f4a7c15ULL;
  if (workload == "serve_unique_mixed") {
    return std::make_unique<UniqueMixedSource>(corpus, request_seed, streams);
  }
  return std::make_unique<RepeatShortSource>(corpus, request_seed, streams);
}

// ---- Responses -------------------------------------------------------------

struct Response {
  int64_t label = -1;
  float confidence = 0.0f;
  std::vector<float> probs;
  std::vector<std::string> tokens;
  std::vector<uint8_t> mask;
  std::vector<std::pair<int64_t, int64_t>> spans;
  std::string rationale_text;
};

/// Parses a predict response body; "" on success, else what is wrong.
std::string ParseResponse(const std::string& body, Response* out) {
  auto json = net::JsonValue::Parse(body);
  if (!json.has_value() || !json->is_object()) return "body is not a JSON object";
  const net::JsonValue* label = json->Find("label");
  const net::JsonValue* confidence = json->Find("confidence");
  const net::JsonValue* probs = json->Find("probs");
  const net::JsonValue* tokens = json->Find("tokens");
  const net::JsonValue* rationale = json->Find("rationale");
  if (label == nullptr || confidence == nullptr || probs == nullptr ||
      tokens == nullptr || rationale == nullptr || !probs->is_array() ||
      !tokens->is_array() || !rationale->is_object()) {
    return "missing response fields";
  }
  const net::JsonValue* mask = rationale->Find("mask");
  const net::JsonValue* spans = rationale->Find("spans");
  const net::JsonValue* text = rationale->Find("text");
  if (mask == nullptr || spans == nullptr || text == nullptr ||
      !mask->is_array() || !spans->is_array() || !text->is_string()) {
    return "missing rationale fields";
  }
  out->label = static_cast<int64_t>(label->number_value);
  out->confidence = static_cast<float>(confidence->number_value);
  for (const auto& p : probs->items) {
    out->probs.push_back(static_cast<float>(p.number_value));
  }
  for (const auto& t : tokens->items) out->tokens.push_back(t.string_value);
  for (const auto& m : mask->items) {
    out->mask.push_back(static_cast<uint8_t>(m.number_value));
  }
  for (const auto& s : spans->items) {
    const net::JsonValue* begin = s.Find("begin");
    const net::JsonValue* end = s.Find("end");
    if (begin == nullptr || end == nullptr) return "malformed span";
    out->spans.emplace_back(static_cast<int64_t>(begin->number_value),
                            static_cast<int64_t>(end->number_value));
  }
  out->rationale_text = text->string_value;
  return "";
}

/// The invariants every response must hold; "" when it holds them all.
std::string CheckInvariants(const Response& r) {
  if (r.probs.empty()) return "no class probabilities";
  const size_t argmax = static_cast<size_t>(
      std::max_element(r.probs.begin(), r.probs.end()) - r.probs.begin());
  if (r.label != static_cast<int64_t>(argmax)) return "label is not argmax(probs)";
  double sum = 0.0;
  for (float p : r.probs) sum += p;
  if (std::fabs(sum - 1.0) > 1e-5) return "probs do not sum to 1";
  if (FloatBits(r.confidence) != FloatBits(r.probs[argmax])) {
    return "confidence is not probs[label]";
  }
  if (r.mask.size() != r.tokens.size()) return "mask and tokens differ in length";
  std::vector<std::pair<int64_t, int64_t>> runs;
  std::string text;
  for (size_t i = 0; i < r.mask.size(); ++i) {
    if (r.mask[i] > 1) return "mask is not 0/1";
    if (r.mask[i] == 0) continue;
    if (runs.empty() || runs.back().second != static_cast<int64_t>(i)) {
      runs.emplace_back(i, i);
    }
    ++runs.back().second;
    if (!text.empty()) text += ' ';
    text += r.tokens[i];
  }
  if (runs != r.spans) return "spans are not the maximal runs of mask";
  if (text != r.rationale_text) return "rationale text is not the selected tokens";
  return "";
}

/// "" when `served` equals the reference result bit for bit.
std::string CompareBits(const Response& served,
                        const serve::InferenceResult& reference) {
  if (served.label != reference.label) return "label";
  if (FloatBits(served.confidence) != FloatBits(reference.confidence)) {
    return "confidence";
  }
  if (served.probs.size() != reference.probs.size()) return "probs";
  for (size_t i = 0; i < served.probs.size(); ++i) {
    if (FloatBits(served.probs[i]) != FloatBits(reference.probs[i])) return "probs";
  }
  if (served.tokens != reference.tokens) return "tokens";
  if (served.mask != reference.mask) return "mask";
  if (served.spans.size() != reference.spans.size()) return "spans";
  for (size_t i = 0; i < served.spans.size(); ++i) {
    if (served.spans[i].first != reference.spans[i].begin ||
        served.spans[i].second != reference.spans[i].end) {
      return "spans";
    }
  }
  if (served.rationale_text != reference.rationale_text) return "rationale text";
  return "";
}

std::string PredictBody(const std::string& text) {
  return net::JsonValue::Object().Set("text", net::JsonValue::Str(text)).Dump();
}

// ---- The closed loop ---------------------------------------------------------

struct Sample {
  std::string text;
  Response response;
};

/// One slice of a timed window.
struct Slice {
  double wall_s = 0.0;
  int64_t completed = 0;
  double server_cpu_s = 0.0;
  double p50_ms = 0.0;
};

/// What a closed loop measured. Its size does not grow with the number of
/// requests: latencies are kept only until their slice closes (plus each
/// client's largest ones, for the tail), request lengths as a histogram,
/// scored texts up to kScoredTexts and bit-exact samples up to
/// kSamplesPerClient per client.
struct LoopResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t completed = 0;
  int64_t repeats = 0;
  /// Well-formed responses by token count (the last bin: that many or more).
  std::vector<int64_t> length_counts = std::vector<int64_t>(kMaxTrackedTokens + 1);
  /// The largest latencies, at most kTopLatencies per client.
  std::vector<double> top_ms;
  std::vector<Slice> slices;
  double wall_s = 0.0;
  /// CPU of the load-generator threads (subtracted from the process CPU
  /// so cpu_ms_per_item is the serving side's).
  double client_cpu_s = 0.0;
  ProcessUsage usage;
  /// Token overlap with the gold rationales, each distinct text once.
  Overlap overlap;
  std::vector<Sample> samples;
  int64_t bad_responses = 0;
  std::string first_bad;

  double ServerCpuS() const { return usage.cpu_s() - client_cpu_s; }

  void Merge(LoopResult&& other) {
    attempted += other.attempted;
    failed += other.failed;
    completed += other.completed;
    repeats += other.repeats;
    for (size_t i = 0; i < length_counts.size(); ++i) {
      length_counts[i] += other.length_counts[i];
    }
    top_ms.insert(top_ms.end(), other.top_ms.begin(), other.top_ms.end());
    client_cpu_s += other.client_cpu_s;
    overlap.Add(other.overlap);
    for (Sample& s : other.samples) samples.push_back(std::move(s));
    if (bad_responses == 0) first_bad = other.first_bad;
    bad_responses += other.bad_responses;
  }
};

/// Nearest-rank percentile `p` of the request lengths in `counts`.
double LengthPercentile(const std::vector<int64_t>& counts, double p) {
  int64_t total = 0;
  for (int64_t c : counts) total += c;
  const int64_t rank = std::max<int64_t>(
      1, static_cast<int64_t>(std::ceil(p / 100.0 * static_cast<double>(total))));
  int64_t seen = 0;
  for (size_t length = 0; length < counts.size(); ++length) {
    seen += counts[length];
    if (seen >= rank) return static_cast<double>(length);
  }
  return 0.0;
}

/// A client's latencies not yet assigned to a slice: (completion time in
/// seconds since the window began, latency in ms), in completion order.
struct Pending {
  std::mutex mu;
  std::vector<std::pair<double, double>> samples;
};

/// `clients` keep-alive connections, each sending its next request as soon
/// as the previous response arrives, until `seconds` pass (or, with
/// seconds <= 0, until the source is spent). Every response is checked
/// against its invariants and scored against its gold rationale as it
/// arrives, outside the latency timer. A timed window is cut into slices
/// of kSliceSeconds.
LoopResult RunClosedLoop(int port, RequestSource& source, int clients,
                         double seconds, bool canary) {
  std::vector<LoopResult> per_client(static_cast<size_t>(clients));
  std::vector<Pending> pending(static_cast<size_t>(clients));
  std::mutex scored_mu;
  std::unordered_set<uint64_t> scored;
  const bool timed = seconds > 0;
  const ProcessUsage usage_before = ProcessUsage::Now();
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopResult& out = per_client[static_cast<size_t>(c)];
      Pending& mine = pending[static_cast<size_t>(c)];
      std::priority_queue<double, std::vector<double>, std::greater<double>> top;
      const double cpu_before = ThreadCpuSeconds();
      net::HttpClient client("127.0.0.1", port, /*timeout_ms=*/10000);
      for (int64_t k = 0; !timed || Clock::now() < deadline; ++k) {
        std::optional<Request> request = source.Next(c);
        if (!request.has_value()) break;
        const std::string body = PredictBody(request->text);
        ++out.attempted;
        const Clock::time_point sent = Clock::now();
        if (canary) SpinFor(kCanaryRequestUs);
        auto reply = client.Post(kPredictPath, body);
        const Clock::time_point done = Clock::now();
        const double ms = std::chrono::duration<double, std::milli>(done - sent).count();
        if (!reply.has_value() || reply->status != 200) {
          ++out.failed;
          continue;
        }
        ++out.completed;
        if (timed) {
          std::lock_guard<std::mutex> lock(mine.mu);
          mine.samples.emplace_back(
              std::chrono::duration<double>(done - start).count(), ms);
        }
        top.push(ms);
        if (top.size() > kTopLatencies) top.pop();
        out.repeats += request->repeat;
        Response response;
        std::string why = ParseResponse(reply->body, &response);
        if (why.empty()) why = CheckInvariants(response);
        if (why.empty() && response.mask.size() != request->gold.size()) {
          why = "token count differs from the request's";
        }
        if (!why.empty()) {
          if (out.bad_responses++ == 0) out.first_bad = why;
          continue;
        }
        ++out.length_counts[std::min(response.mask.size(), kMaxTrackedTokens)];
        bool score;
        {
          std::lock_guard<std::mutex> lock(scored_mu);
          score = scored.size() < kScoredTexts &&
                  scored.insert(std::hash<std::string>{}(request->text)).second;
        }
        if (score) out.overlap.Add(response.mask, request->gold);
        if (k % kSampleEvery == 0 && k / kSampleEvery < kSamplesPerClient) {
          out.samples.push_back({request->text, std::move(response)});
        }
      }
      out.client_cpu_s = ThreadCpuSeconds() - cpu_before;
      for (; !top.empty(); top.pop()) out.top_ms.push_back(top.top());
    });
  }
  // Slice boundaries: the process CPU and the load generator's CPU, read
  // while every client is still running (so the last boundary falls before
  // the deadline, after which clients exit).
  struct Mark {
    double t = 0.0;
    double server_cpu_s = 0.0;
  };
  std::vector<Mark> marks;
  auto mark = [&] {
    double client_cpu = 0.0;
    for (std::thread& t : threads) {
      clockid_t clock;
      timespec ts{};
      if (pthread_getcpuclockid(t.native_handle(), &clock) == 0 &&
          clock_gettime(clock, &ts) == 0) {
        client_cpu += static_cast<double>(ts.tv_sec) + 1e-9 * ts.tv_nsec;
      }
    }
    marks.push_back({SecondsSince(start), ProcessUsage::Now().cpu_s() - client_cpu});
  };
  // Latencies moved out of the clients' pending lists, not yet in a slice.
  std::vector<std::pair<double, double>> ready;
  auto collect = [&](double until) {
    for (Pending& p : pending) {
      std::lock_guard<std::mutex> lock(p.mu);
      auto end = std::find_if(p.samples.begin(), p.samples.end(),
                              [&](const auto& s) { return s.first >= until; });
      ready.insert(ready.end(), p.samples.begin(), end);
      p.samples.erase(p.samples.begin(), end);
    }
  };
  std::vector<Slice> slices;
  // Closes slice i, [marks[i-1].t, marks[i].t), from `ready`.
  auto close = [&](size_t i) {
    Slice slice;
    slice.wall_s = marks[i].t - marks[i - 1].t;
    slice.server_cpu_s = marks[i].server_cpu_s - marks[i - 1].server_cpu_s;
    std::vector<double> latencies;
    for (const auto& [done_s, ms] : ready) {
      if (done_s >= marks[i - 1].t && done_s < marks[i].t) latencies.push_back(ms);
    }
    std::erase_if(ready, [&](const auto& s) { return s.first < marks[i].t; });
    slice.completed = static_cast<int64_t>(latencies.size());
    slice.p50_ms = Median(latencies);
    if (slice.completed > 0) slices.push_back(slice);
  };
  size_t closed = 0;  // slices 1..closed are closed
  if (timed) {
    mark();
    for (int k = 1; k * kSliceSeconds < seconds - 1e-9; ++k) {
      std::this_thread::sleep_until(
          start + std::chrono::microseconds(
                      static_cast<int64_t>(k * kSliceSeconds * 1e6)));
      mark();
      // The slice before the one just ended: its late samples are in.
      if (marks.size() >= 3) {
        collect(marks[marks.size() - 2].t);
        close(++closed);
      }
    }
  }
  for (std::thread& t : threads) t.join();
  LoopResult result;
  result.wall_s = SecondsSince(start);
  result.usage = ProcessUsage::Now() - usage_before;
  for (LoopResult& r : per_client) result.Merge(std::move(r));
  collect(std::numeric_limits<double>::infinity());
  while (closed + 1 < marks.size()) close(++closed);
  result.slices = std::move(slices);
  return result;
}

/// Median over a window's slices of `f(slice)`.
template <typename F>
double SliceMedian(const LoopResult& loop, F&& f) {
  std::vector<double> values;
  for (const Slice& slice : loop.slices) values.push_back(f(slice));
  return Median(values);
}

double SliceP50(const Slice& slice) { return slice.p50_ms; }

/// Checks a loop's responses: every one held its invariants, and the kept
/// sample equals an uncached reference's PredictBatch bit for bit. Failed
/// requests are not a wrong output; callers count them in Report::failed.
void CheckResponses(const LoopResult& loop,
                    const serve::InferenceSession& reference, Report& report) {
  report.Check(loop.bad_responses == 0,
               std::to_string(loop.bad_responses) +
                   " responses broke an invariant, first: " + loop.first_bad);
  int64_t mismatches = 0;
  std::string first;
  constexpr size_t kChunk = 64;
  for (size_t begin = 0; begin < loop.samples.size(); begin += kChunk) {
    const size_t end = std::min(loop.samples.size(), begin + kChunk);
    std::vector<std::string> texts;
    for (size_t i = begin; i < end; ++i) texts.push_back(loop.samples[i].text);
    const std::vector<serve::InferenceResult> expected =
        reference.PredictBatch(texts);
    for (size_t i = begin; i < end; ++i) {
      const std::string diff =
          CompareBits(loop.samples[i].response, expected[i - begin]);
      if (!diff.empty() && mismatches++ == 0) first = diff;
    }
  }
  report.Check(!loop.samples.empty() && mismatches == 0,
               std::to_string(mismatches) + " of " +
                   std::to_string(loop.samples.size()) +
                   " sampled responses differ from the uncached reference "
                   "(first in: " + first + ")");
}

// ---- Traced serving windows and layer probes ---------------------------------

/// The serving-layer metrics of a traced run. With `primary` (the serve
/// workloads) an untraced window of `seconds` is followed by a traced one
/// of the same length; otherwise one traced pass spends the source.
/// Destroys `stack` at the end, which flushes the worker threads' spans.
void MeasureServingWindows(std::unique_ptr<Stack>& stack, RequestSource& source,
                           int clients, double seconds, bool primary,
                           const serve::InferenceSession& reference,
                           Report& report) {
  namespace obs = dar::obs;
  LoopResult untraced;
  if (primary) {
    untraced = RunClosedLoop(stack->port(), source, clients, seconds, false);
    CheckResponses(untraced, reference, report);
    report.attempted += untraced.attempted;
    report.failed += untraced.failed;
  }

  obs::SetTraceLevel(obs::TraceLevel::kDetailed);
  dar::sync::SetContentionTracking(true);
  const char* kSpans[] = {"serve.enqueue", "serve.batch_collect",
                          "serve.forward", "serve.cache_lookup"};
  std::vector<SpanTotals> spans_before;
  for (const char* name : kSpans) spans_before.push_back(SpanNow(name));
  const int64_t flops_before = MatmulFlopsNow();
  const ContentionTotals contention_before = ContentionTotals::Now();
  const serve::CacheTierStats encoder_before = stack->CacheStats("encoder");
  const serve::CacheTierStats embedding_before = stack->CacheStats("embedding");
  const serve::StatsSnapshot session_before = stack->session().stats().Snapshot();

  LoopResult traced = RunClosedLoop(stack->port(), source, clients,
                                    primary ? seconds : 0.0, false);

  const serve::StatsSnapshot session_after = stack->session().stats().Snapshot();
  const serve::CacheTierStats encoder = stack->CacheStats("encoder");
  const serve::CacheTierStats embedding = stack->CacheStats("embedding");
  const ContentionTotals contention = ContentionTotals::Now();
  const int64_t flops = MatmulFlopsNow() - flops_before;
  obs::SetTraceLevel(obs::TraceLevel::kOff);
  dar::sync::SetContentionTracking(false);
  stack.reset();
  std::vector<double> span_us;
  for (size_t i = 0; i < std::size(kSpans); ++i) {
    span_us.push_back(SpanMeanUs(spans_before[i], SpanNow(kSpans[i])));
  }
  CheckResponses(traced, reference, report);
  report.attempted += traced.attempted;
  report.failed += traced.failed;

  const double requests = static_cast<double>(traced.completed);
  const int64_t hits = encoder.hits - encoder_before.hits;
  const int64_t lookups = hits + encoder.misses - encoder_before.misses;
  const double hit_share = lookups > 0 ? static_cast<double>(hits) / lookups : 0.0;
  const double repeat_share = static_cast<double>(traced.repeats) / requests;
  char what[200];
  std::snprintf(what, sizeof(what),
                "encoder-tier hit share %.4f matches the share of repeated "
                "requests %.4f within 0.02",
                hit_share, repeat_share);
  report.Check(std::fabs(hit_share - repeat_share) <= 0.02, what);

  report.Metric("tensor.matmul_mflop_per_req", "MFLOP",
                1e-6 * static_cast<double>(flops) / requests);
  report.Metric("serve.enqueue_us", "us", span_us[0]);
  report.Metric("serve.batch_collect_us", "us", span_us[1]);
  report.Metric("serve.forward_us", "us", span_us[2]);
  report.Metric("cache.lookup_us", "us", span_us[3]);
  const int64_t batches = session_after.batches - session_before.batches;
  report.Metric("serve.batch_size_mean", "count",
                batches > 0 ? static_cast<double>(session_after.requests -
                                                  session_before.requests) /
                                  static_cast<double>(batches)
                            : 0.0);
  report.Metric("cache.encoder_hit_share", "share", hit_share);
  report.Metric("cache.evictions_per_req", "count",
                static_cast<double>(encoder.evictions - encoder_before.evictions +
                                    embedding.evictions -
                                    embedding_before.evictions) /
                    requests);
  report.Metric("cache.bytes_mb", "MB",
                static_cast<double>(encoder.bytes + embedding.bytes) /
                    (1024.0 * 1024.0));
  report.Metric("sync.contention_per_req", "count",
                static_cast<double>(contention.waits - contention_before.waits) /
                    requests);
  report.Metric("sync.wait_us_per_req", "us",
                static_cast<double>(contention.wait_us - contention_before.wait_us) /
                    requests);
  const LoopResult& counted = primary ? untraced : traced;
  report.Metric("process.minor_faults_per_req", "count",
                static_cast<double>(counted.usage.minor_faults) /
                    static_cast<double>(counted.completed));
  report.Note("repeat_share", repeat_share);
  if (!primary) return;
  report.Metric("process.sys_share", "share",
                untraced.usage.sys_s / untraced.usage.cpu_s());
  report.Metric("process.cpu_util", "share",
                untraced.usage.cpu_s() / (untraced.wall_s * HostCpus()));
}

struct ProbeSet {
  std::vector<Request> warm;
  std::vector<Request> texts;
  /// Batch rows for the GEMM probe (1 when serving, the training batch
  /// for train_dar_beer) and tokens per row.
  int64_t gemm_rows = 1;
  int64_t gemm_tokens = 1;
  /// Report nn.gru_forward_us from the B=1 stage probe (the serve
  /// workloads; train_dar_beer reports it from its traced Fit).
  bool gru_from_probe = true;
};

template <typename F>
double TimeUs(F&& f) {
  const Clock::time_point start = Clock::now();
  f();
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count();
}

/// Benchmark-side timers around each serving layer's public functions, on
/// fresh stacks restored from the same checkpoint. Returns the cost of
/// kDetailed spans on serving: each probe text through Router::Handle at
/// kOff on one stack and at kDetailed on another (the order flipped every
/// text, so host drift cancels), the median paired difference as a
/// percentage of the median untraced time.
double RunProbes(const Corpus& corpus, const std::string& checkpoint,
                 const ProbeSet& probes, Report& report) {
  namespace obs = dar::obs;
  obs::SetTraceLevel(obs::TraceLevel::kDetailed);
  // Stacks sent the same texts in the same order hold the same cache
  // state: `stack` answers in process and `wire_stack` over HTTP; `off`
  // and `on` answer in process with spans off and at kDetailed.
  Stack stack(corpus, checkpoint);
  Stack wire_stack(corpus, checkpoint);
  Stack off(corpus, checkpoint);
  Stack on(corpus, checkpoint);
  auto http_request = [](const std::string& body) {
    net::HttpRequest request;
    request.method = "POST";
    request.target = kPredictPath;
    request.version = "HTTP/1.1";
    request.headers = {{"content-type", "application/json"},
                       {"content-length", std::to_string(body.size())}};
    request.body = body;
    return request;
  };
  for (const Request& r : probes.warm) {
    for (Stack* s : {&stack, &wire_stack, &off, &on}) {
      s->router().Handle(http_request(PredictBody(r.text)));
    }
  }

  // net + serve: each text through Router::Handle in process and over
  // HTTP; the median of the per-text differences is the wire's share.
  std::vector<double> handle_us, wire_us;
  std::vector<std::string> request_bodies, response_bodies;
  {
    net::HttpClient client("127.0.0.1", wire_stack.port(), 10000);
    for (const Request& r : probes.texts) {
      const net::HttpRequest request = http_request(PredictBody(r.text));
      net::HttpResponse response;
      const double handle =
          TimeUs([&] { response = stack.router().Handle(request); });
      report.Check(response.status == 200, "in-process Router::Handle answers 200");
      std::optional<net::ClientResponse> reply;
      const double rtt =
          TimeUs([&] { reply = client.Post(kPredictPath, request.body); });
      report.Check(reply.has_value() && reply->status == 200 &&
                       reply->body == response.body,
                   "a probe request over HTTP answers 200 with the in-process "
                   "body");
      handle_us.push_back(handle);
      wire_us.push_back(rtt - handle);
      request_bodies.push_back(request.body);
      response_bodies.push_back(response.body);
    }
  }
  report.Metric("serve.handle_us", "us", Median(handle_us));
  report.Metric("net.wire_us", "us", Median(wire_us));

  std::vector<double> off_us, trace_diff_us;
  for (size_t i = 0; i < probes.texts.size(); ++i) {
    const net::HttpRequest request = http_request(PredictBody(probes.texts[i].text));
    auto time_at = [&](Stack& s, obs::TraceLevel level) {
      obs::SetTraceLevel(level);
      net::HttpResponse response;
      const double us = TimeUs([&] { response = s.router().Handle(request); });
      report.Check(response.status == 200, "in-process Router::Handle answers 200");
      return us;
    };
    double off_time, on_time;
    if (i % 2 == 0) {
      off_time = time_at(off, obs::TraceLevel::kOff);
      on_time = time_at(on, obs::TraceLevel::kDetailed);
    } else {
      on_time = time_at(on, obs::TraceLevel::kDetailed);
      off_time = time_at(off, obs::TraceLevel::kOff);
    }
    off_us.push_back(off_time);
    trace_diff_us.push_back(on_time - off_time);
  }
  obs::SetTraceLevel(obs::TraceLevel::kDetailed);

  std::vector<const Request*> all;
  for (const Request& r : probes.texts) all.push_back(&r);

  std::vector<double> encode_us;
  for (const Request* r : all) {
    encode_us.push_back(TimeUs([&] { (void)stack.session().Encode(r->text); }));
  }
  report.Metric("serve.encode_us", "us", Mean(encode_us));

  std::vector<double> parse_us, json_us;
  for (size_t i = 0; i < request_bodies.size(); ++i) {
    const std::string raw = std::string("POST ") + kPredictPath +
                            " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                            "Content-Type: application/json\r\n"
                            "Content-Length: " +
                            std::to_string(request_bodies[i].size()) +
                            "\r\n\r\n" + request_bodies[i];
    net::HttpParser parser;
    parse_us.push_back(TimeUs([&] { parser.Feed(raw.data(), raw.size()); }));
    report.Check(parser.done(), "HttpParser parses a predict request");
    const auto response = net::JsonValue::Parse(response_bodies[i]);
    report.Check(response.has_value(), "response body parses as JSON");
    if (!response.has_value()) continue;
    std::string dumped;
    json_us.push_back(TimeUs([&] {
      (void)net::JsonValue::Parse(request_bodies[i]);
      dumped = response->Dump();
    }));
    report.Check(dumped == response_bodies[i], "JsonValue::Dump reproduces the body");
  }
  report.Metric("net.parse_us", "us", Mean(parse_us));
  report.Metric("net.json_us", "us", Mean(json_us));

  // core + autograd: the four serving stages at B=1, the composed forward
  // they must add up to, and the same forward on a copy with parameter
  // gradients off (its difference is the tape's cost).
  const core::RationalizerBase& model = stack.session().model();
  auto untaped = NewModel(corpus);
  report.Check(core::LoadRationalizer(*untaped, checkpoint).ok,
               "checkpoint loads into the gradient-free copy");
  for (const dar::nn::NamedModule& m : untaped->CheckpointModules()) {
    m.module->SetRequiresGrad(false);
  }
  untaped->SetTraining(false);
  serve::CacheConfig cache_config;
  cache_config.enabled = true;
  serve::ServeCache cache(cache_config);
  const serve::ServeCache::ModelId cache_model = cache.RegisterModel("probe");
  double stage_us[4] = {0.0, 0.0, 0.0, 0.0};
  double forward_us = 0.0, untaped_us = 0.0;
  std::vector<double> insert_us;
  bool same_outputs = true;
  const SpanTotals gru_before = SpanNow("gru.forward");
  for (size_t i = 0; i < all.size(); ++i) {
    const std::vector<int64_t> ids = stack.session().Encode(all[i]->text);
    const dar::data::Batch batch = dar::data::Batch::FromTokenSequences(
        {ids}, dar::data::Vocabulary::kPadId);
    dar::Tensor gen, mask, pred, logits;
    auto stages = [&] {
      stage_us[0] += TimeUs([&] { gen = model.GenEncoderStatesConst(batch); });
      stage_us[1] += TimeUs([&] { mask = model.EvalMaskFromStatesConst(batch, gen); });
      stage_us[2] += TimeUs([&] { pred = model.PredEncoderStatesConst(batch, mask); });
      stage_us[3] += TimeUs([&] { logits = model.PredictLogitsFromStatesConst(batch, pred); });
    };
    dar::Tensor full_mask, full_logits, bare_mask, bare_logits;
    auto composed = [&] {
      forward_us += TimeUs([&] {
        full_mask = model.EvalMaskConst(batch);
        full_logits = model.PredictLogitsConst(batch, full_mask);
      });
    };
    // One untimed forward warms the caches for this text; the two timed
    // paths then take turns going first, so neither always runs colder.
    (void)model.PredictLogitsConst(batch, model.EvalMaskConst(batch));
    if (i % 2 == 0) {
      stages();
      composed();
    } else {
      composed();
      stages();
    }
    untaped_us += TimeUs([&] {
      bare_mask = untaped->EvalMaskConst(batch);
      bare_logits = untaped->PredictLogitsConst(batch, bare_mask);
    });
    auto same = [](const dar::Tensor& a, const dar::Tensor& b) {
      return a.numel() == b.numel() &&
             std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()) == 0;
    };
    same_outputs = same_outputs && same(full_mask, bare_mask) &&
                   same(full_logits, bare_logits) && same(mask, full_mask) &&
                   same(logits, full_logits);
    dar::Tensor gen_copy = gen, pred_copy = pred;
    insert_us.push_back(TimeUs([&] {
      cache.InsertEncoderStates(cache_model, ids, std::move(gen_copy),
                                std::move(pred_copy));
    }));
  }
  if (probes.gru_from_probe) {
    report.Metric("nn.gru_forward_us", "us",
                  SpanMeanUs(gru_before, SpanNow("gru.forward")));
  }
  const double n = static_cast<double>(all.size());
  report.Check(same_outputs,
               "staged, composed and gradient-free forwards agree bit for bit");
  const double stages = stage_us[0] + stage_us[1] + stage_us[2] + stage_us[3];
  char what[200];
  std::snprintf(what, sizeof(what),
                "the four core stages (%.1f us) add up to the B=1 forward "
                "(%.1f us) within 15 %%",
                stages / n, forward_us / n);
  report.Check(std::fabs(stages - forward_us) <= 0.15 * forward_us, what);
  report.Metric("core.gen_encoder_us", "us", stage_us[0] / n);
  report.Metric("core.mask_head_us", "us", stage_us[1] / n);
  report.Metric("core.pred_encoder_us", "us", stage_us[2] / n);
  report.Metric("core.logits_head_us", "us", stage_us[3] / n);
  report.Metric("autograd.tape_us_per_req", "us", (forward_us - untaped_us) / n);
  report.Metric("cache.insert_us", "us", Mean(insert_us));

  // tensor: the GRU's two GEMMs (input projection over all rows, then one
  // recurrent projection per step) at the workload's shapes.
  const int64_t rows = probes.gemm_rows, steps = probes.gemm_tokens;
  const int64_t e = corpus.config.embedding_dim, h = corpus.config.hidden_dim;
  std::vector<float> x(static_cast<size_t>(rows * steps * e), 0.5f);
  std::vector<float> wx(static_cast<size_t>(e * 3 * h), 0.25f);
  std::vector<float> hs(static_cast<size_t>(rows * h), 0.5f);
  std::vector<float> wh(static_cast<size_t>(h * 3 * h), 0.25f);
  std::vector<float> cx(static_cast<size_t>(rows * steps * 3 * h));
  std::vector<float> ch(static_cast<size_t>(rows * 3 * h));
  const double flops_per_rep =
      2.0 * static_cast<double>(rows * steps * e * 3 * h) +
      2.0 * static_cast<double>(steps * rows * h * 3 * h);
  const int reps = std::max(1, static_cast<int>(2e8 / flops_per_rep));
  const double gemm_us = TimeUs([&] {
    for (int rep = 0; rep < reps; ++rep) {
      std::fill(cx.begin(), cx.end(), 0.0f);
      dar::gemm::Gemm(dar::gemm::Trans::kNN, rows * steps, 3 * h, e, x.data(),
                      wx.data(), cx.data());
      for (int64_t t = 0; t < steps; ++t) {
        std::fill(ch.begin(), ch.end(), 0.0f);
        dar::gemm::Gemm(dar::gemm::Trans::kNN, rows, 3 * h, h, hs.data(),
                        wh.data(), ch.data());
      }
    }
  });
  report.Metric("tensor.gemm_gflops", "GFLOP/s",
                1e-3 * flops_per_rep * reps / gemm_us);
  obs::SetTraceLevel(obs::TraceLevel::kOff);
  return 100.0 * Median(trace_diff_us) / Median(off_us);
}

std::vector<Request> Draw(RequestSource& source, int stream, int count) {
  std::vector<Request> requests;
  for (int i = 0; i < count; ++i) {
    std::optional<Request> r = source.Next(stream);
    if (!r.has_value()) break;
    requests.push_back(std::move(*r));
  }
  return requests;
}

int Clients() { return std::min(HostCpus(), kServerThreads); }

/// Runs this binary again as `perfbench --train-checkpoint <checkpoint>`
/// (TrainServedModel) and waits for it, so training's memory never enters
/// the serving process's peak resident set.
void TrainInChildProcess(const std::string& checkpoint) {
  const std::string self = "/proc/self/exe";
  std::vector<std::string> args = {"perfbench", "--train-checkpoint", checkpoint};
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = 0;
  if (posix_spawn(&pid, self.c_str(), nullptr, nullptr, argv.data(), environ) != 0) {
    Fatal("cannot start the training process");
  }
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    Fatal("the training process failed");
  }
}

}  // namespace

int TrainServedModel(const std::string& checkpoint) {
  const Corpus corpus = MakeCorpus(kServedCorpusSeed);
  auto model = NewModel(corpus);
  core::Fit(*model, corpus.dataset);
  if (!core::SaveRationalizer(*model, checkpoint)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", checkpoint.c_str());
    return 1;
  }
  return 0;
}

void RunServe(const Options& options, Report& report) {
  const std::string checkpoint = CheckpointPath(options);
  const int clients = Clients();
  std::optional<Corpus> corpus;
  std::unique_ptr<Stack> stack;

  if (!options.trace) {
    // Set-up, repeated: train the served model and checkpoint it (in a
    // child process), restore it into a fresh session and bring the stack
    // up. This process's peak resident set is then restore and serving.
    std::vector<double> setup_s;
    std::string first_checkpoint;
    for (int i = 0; i < kServeSetups; ++i) {
      stack.reset();
      corpus.reset();
      const Clock::time_point start = Clock::now();
      TrainInChildProcess(checkpoint);
      corpus.emplace(MakeCorpus(kServedCorpusSeed));
      stack = std::make_unique<Stack>(*corpus, checkpoint);
      setup_s.push_back(SecondsSince(start));
      const std::string bytes = ReadFile(checkpoint);
      if (i == 0) first_checkpoint = bytes;
      report.Check(bytes == first_checkpoint,
                   "repeated set-ups train bit-identical parameters");
    }
    auto source = MakeSource(options.workload, *corpus, options.seed, clients);
    const LoopResult warmup = RunClosedLoop(stack->port(), *source, clients,
                                            kWarmupSeconds, false);
    const LoopResult run = RunClosedLoop(stack->port(), *source, clients,
                                         options.seconds, options.canary);
    stack.reset();
    // Read before the uncached reference is restored and run.
    const double peak_rss_mb = PeakRssMb();
    const auto reference = RestoreReference(*corpus, checkpoint);
    CheckResponses(warmup, *reference, report);
    report.Note("warmup_failed", static_cast<double>(warmup.failed));
    CheckResponses(run, *reference, report);
    report.attempted = run.attempted;
    report.failed = run.failed;
    const double completed = static_cast<double>(run.completed);

    report.Metric("setup_s", "s", Median(setup_s));
    report.Metric("peak_rss_mb", "MB", peak_rss_mb);
    report.Metric("rationale_f1", "F1", run.overlap.F1());
    report.Metric("items_per_s", "1/s", SliceMedian(run, [](const Slice& s) {
                    return s.completed / s.wall_s;
                  }));
    report.Metric("p50_ms", "ms", SliceMedian(run, SliceP50));
    report.Metric("cpu_ms_per_item", "ms", SliceMedian(run, [](const Slice& s) {
                    return 1e3 * s.server_cpu_s / s.completed;
                  }));
    report.Note("window_items_per_s", completed / run.wall_s);
    report.Note("window_cpu_ms_per_item", 1e3 * run.ServerCpuS() / completed);
    const TailPercentile tail = HighestTailOfTop(run.top_ms, run.completed);
    report.Note("tail_percentile", tail.valid ? tail.percentile : 0.0);
    report.Note("tail_ms", tail.valid ? tail.value : 0.0);
    report.Note("latency_samples", static_cast<double>(tail.samples));
    report.Note("samples_beyond_tail", static_cast<double>(tail.beyond));
    report.Note("clients", clients);
    report.Note("repeat_share", static_cast<double>(run.repeats) / completed);
    for (double p : {10.0, 50.0, 90.0}) {
      report.Note("tokens_p" + std::to_string(static_cast<int>(p)),
                  LengthPercentile(run.length_counts, p));
    }
    report.Note("bitexact_samples", static_cast<double>(run.samples.size()));
    std::remove(checkpoint.c_str());
    return;
  }

  // Traced run: the set-up's training traced and replayed, then an
  // untraced and a traced window, then the layer probes.
  double generate_ms = 0.0;
  corpus.emplace(MakeCorpus(kServedCorpusSeed, &generate_ms));
  report.Metric("datasets.generate_ms", "ms", generate_ms);
  TracedFit traced = MeasureTrainingLayers(*corpus, report);
  if (!core::SaveRationalizer(*traced.model, checkpoint)) {
    Fatal("cannot write " + checkpoint);
  }
  stack = std::make_unique<Stack>(*corpus, checkpoint);
  auto source = MakeSource(options.workload, *corpus, options.seed, clients + 1);
  const auto reference = RestoreReference(*corpus, checkpoint);
  CheckResponses(RunClosedLoop(stack->port(), *source, clients, kWarmupSeconds,
                               false),
                 *reference, report);
  MeasureServingWindows(stack, *source, clients, options.seconds / 2,
                        /*primary=*/true, *reference, report);
  ProbeSet probes;
  probes.warm = source->WarmSet();
  probes.texts = Draw(*source, clients, kProbeRequests);
  int64_t tokens = 0;
  for (const Request& r : probes.texts) tokens += static_cast<int64_t>(r.gold.size());
  probes.gemm_tokens = std::max<int64_t>(1, tokens / kProbeRequests);
  const double overhead_pct = RunProbes(*corpus, checkpoint, probes, report);
  char what[160];
  std::snprintf(what, sizeof(what),
                "kDetailed spans cost %.2f %% of Router::Handle, at most %.0f %%",
                overhead_pct, kMaxTraceOverheadPct);
  report.Check(overhead_pct <= kMaxTraceOverheadPct, what);
  report.Metric("obs.trace_overhead_pct", "%", overhead_pct);
  std::remove(checkpoint.c_str());
}

void MeasureServingLayersOnTestSplit(const Corpus& corpus,
                                     core::RationalizerBase& model,
                                     const Options& options, Report& report) {
  const std::string checkpoint = CheckpointPath(options);
  if (!core::SaveRationalizer(model, checkpoint)) {
    Fatal("cannot write " + checkpoint);
  }
  std::vector<Request> test;
  for (const dar::data::Example& example : corpus.dataset.test) {
    Request request;
    for (const auto& [text, gold] : Sentences(example, corpus.dataset.vocab)) {
      if (!request.text.empty()) request.text += ' ';
      request.text += text;
      request.gold.insert(request.gold.end(), gold.begin(), gold.end());
    }
    test.push_back(std::move(request));
  }
  const auto reference = RestoreReference(corpus, checkpoint);
  auto stack = std::make_unique<Stack>(corpus, checkpoint);
  // Four passes: the first misses the cache, the rest hit it, and 480
  // requests give the sync layer enough traffic to see contention.
  ListSource source(test, /*passes=*/4);
  MeasureServingWindows(stack, source, Clients(), 0.0, /*primary=*/false,
                        *reference, report);

  ProbeSet probes;
  probes.texts = test;
  probes.gemm_rows = corpus.config.batch_size;
  probes.gru_from_probe = false;
  int64_t tokens = 0;
  for (const dar::data::Example& example : corpus.dataset.train) {
    tokens += static_cast<int64_t>(example.tokens.size());
  }
  probes.gemm_tokens =
      tokens / static_cast<int64_t>(corpus.dataset.train.size());
  // train_dar_beer reports the overhead on training steps instead.
  (void)RunProbes(corpus, checkpoint, probes, report);
  std::remove(checkpoint.c_str());
}

}  // namespace perfbench
