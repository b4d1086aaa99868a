// pipeline_warm: the continuous-learning loop composed from the public
// pipeline calls (the steps of PipelineDriver::Run), with one generator
// thread sending live traffic through ModelServer::TrySubmit at a fixed
// open-loop rate. Freshness is timed per window from the
// WindowIngestor::Ingest call to the SwapWhenReady callback that
// publishes the generation trained on that window.

#include <malloc.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "baselines/model_zoo.h"
#include "common.h"
#include "core/trainer.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "pipeline/pipeline.h"
#include "proc.h"
#include "serve/servable.h"
#include "serve/server.h"

namespace perfbench {

using namespace logirec;

namespace {

constexpr int kEvalK = 20;
// Live reads: kLiveRate per second in Poisson batches of kLiveBatch.
constexpr double kLiveRate = 4000.0;
constexpr size_t kLiveBatch = 256;
constexpr size_t kVerifyStride = 8;
// Live reads are scheduled this far ahead; a replay takes a few seconds.
constexpr double kLiveHorizonS = 30.0;
// Replays per untraced run; every figure is a median over them.
constexpr int kReps = 5;
constexpr int kTrainThreads = 1;
constexpr int kServerThreads = 2;

/// Pins the calling thread, and every thread it starts later, to the
/// highest CPU it may run on. Training, the server's workers and the
/// live-read generator then share one CPU, so reads compete with writes
/// for it, and no idle vCPU has to be woken for a batch: on the virtual
/// machine this was built on, that wake-up set the reads' latency more
/// than the program did (see perfbench/README.md).
void PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
  for (int cpu = CPU_SETSIZE - 1; cpu >= 0; --cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    sched_setaffinity(0, sizeof(one), &one);
    return;
  }
}

double CpuSeconds() {
  rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

/// Collects EpochStats through TrainConfig::observer (program-reported).
class EpochCollector final : public core::TrainObserver {
 public:
  void OnEpochEnd(const core::EpochStats& stats) override {
    seconds += stats.seconds;
    samples += stats.samples;
    logic_seconds += stats.logic_seconds;
    mining_seconds += stats.mining_seconds;
  }
  void Reset() { *this = EpochCollector(); }
  double seconds = 0.0;
  long samples = 0;
  double logic_seconds = 0.0;
  double mining_seconds = 0.0;
};

struct LiveRecord {
  int64_t sched_ns = 0;
  int64_t done_ns = 0;
  int user = 0;
  int status = -1;  // -1 never sent, 0 ok, 1 shed, 2 failed
  uint64_t generation = 0;
};

/// Per-window timings of one replay, seconds.
struct WindowTimes {
  double eval = 0, ingest = 0, train = 0, snapshot_write = 0, build = 0,
         publish_wait = 0, freshness = 0, us_per_pair = 0, logic = 0,
         mining = 0;
  int64_t arrive_ns = 0, swap_begin_ns = 0, swap_end_ns = 0;
};

struct RepResult {
  double setup_s = 0.0;
  double fit_full_s = 0.0;
  double ndcg = 0.0;
  std::vector<double> window_ndcg;
  std::vector<WindowTimes> windows;
  std::vector<LiveRecord> live;
  /// Replies kept for the correctness check: every kVerifyStride-th read.
  std::vector<std::vector<int>> sampled_items;
  size_t live_sent = 0;
  double cpu_s = 0.0;
  long live_mismatch = 0;
  long live_checked = 0;
  double live_recall = 0.0;
  uint64_t snapshot_bytes = 0;
  int64_t late_max_ns = 0;
  long ingested = 0;  ///< interactions appended during the replay
  serve::ServerStats stats;
};

struct Setup {
  pipeline::PipelineOptions options;
  core::TrainConfig config;
  data::Dataset dataset;
  std::string dir;
  uint64_t seed = 1;
};

std::string SnapPath(const std::string& dir, uint64_t generation) {
  return dir + "/gen" + std::to_string(generation) + ".snap";
}

/// One replay: set-up, then every window under live reads. `epochs`
/// (null when untraced) collects EpochStats through TrainConfig::observer.
Result<RepResult> RunRep(const Setup& s, EpochCollector* epochs) {
  RepResult out;
  core::TrainConfig config = s.config;
  config.observer = epochs;
  const pipeline::PipelineOptions& options = s.options;
  std::filesystem::remove_all(s.dir);
  std::filesystem::create_directories(s.dir);

  // --- set-up: bootstrap ingest, FitFull, first snapshot, first publish.
  const int64_t setup_begin = NowNs();
  pipeline::InteractionLog log(s.dataset, options.num_windows);
  pipeline::WindowIngestor ingestor(
      log.MakeBaseDataset(),
      pipeline::MakeIngestorOptions(options.trainer.model, config));
  pipeline::WarmStartTrainer trainer(options.trainer, config);
  for (int w = 0; w < options.bootstrap_windows; ++w) {
    auto stats = ingestor.Ingest(log.window(w));
    if (!stats.ok()) return stats.status();
  }
  const int64_t fit_begin = NowNs();
  std::string prev = SnapPath(s.dir, 1);
  auto boot = trainer.FitFull(ingestor.dataset(), ingestor.split(), prev);
  if (!boot.ok()) return boot.status();
  out.fit_full_s = 1e-9 * static_cast<double>(NowNs() - fit_begin);
  serve::ModelServer server(options.server);
  std::map<uint64_t, std::shared_ptr<const serve::ServableModel>> generations;
  {
    auto first = serve::ServableModel::FromSnapshot(
        prev, baselines::MakeModel, &ingestor.split(), 1, options.retrieval);
    if (!first.ok()) return first.status();
    server.Swap(*first);
    generations[1] = *first;
  }
  out.setup_s = 1e-9 * static_cast<double>(NowNs() - setup_begin);

  // --- live traffic: one generator thread, fixed open-loop rate. The
  // batches are a steadiness choice, not an observed traffic shape:
  // single reads at 500 req/s were mostly vCPU wake-up time and their p50
  // spread 19% over ten runs. A read's latency here is set by how fast
  // its batch drains on the server's workers beside training.
  const std::vector<ScheduledRequest> batches =
      OpenLoopSchedule(s.seed, kLiveRate / kLiveBatch, kLiveHorizonS, s.dataset.num_users);
  out.live.resize(batches.size() * kLiveBatch);
  out.sampled_items.resize(out.live.size() / kVerifyStride + 1);
  std::atomic<bool> stop{false};
  std::atomic<size_t> sent{0};
  const double cpu_begin = CpuSeconds();
  const int64_t replay_begin = NowNs();
  std::thread generator([&] {
    // Wake on time: the default 50 us timer slack would be charged to
    // every request's latency.
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    for (size_t b = 0; b < batches.size(); ++b) {
      const int64_t at = replay_begin + batches[b].at_ns;
      SleepUntilNs(at);
      if (stop.load(std::memory_order_relaxed)) break;
      out.late_max_ns = std::max(out.late_max_ns, NowNs() - at);
      for (size_t i = b * kLiveBatch; i < (b + 1) * kLiveBatch; ++i) {
        LiveRecord& rec = out.live[i];
        rec.sched_ns = at;
        rec.user = ScheduleUser(s.seed, i, s.dataset.num_users);
        std::vector<int>* keep =
            i % kVerifyStride == 0 ? &out.sampled_items[i / kVerifyStride] : nullptr;
        const Status admitted = server.TrySubmit(
            rec.user, kEvalK, [&rec, keep](serve::RankResponse response) {
              rec.done_ns = NowNs();
              rec.status = response.status.ok() ? 0 : 2;
              rec.generation = response.generation;
              if (keep != nullptr) *keep = std::move(response.items);
            });
        if (!admitted.ok()) {
          rec.done_ns = NowNs();
          rec.status = admitted.code() == StatusCode::kUnavailable ? 1 : 2;
        }
      }
      sent.store((b + 1) * kLiveBatch, std::memory_order_relaxed);
    }
  });

  std::mutex gen_mu;
  std::vector<std::vector<int>> truth(s.dataset.num_users);
  uint64_t generation = 1;
  Status failure = Status::OK();
  for (int w = options.bootstrap_windows; w < options.num_windows; ++w) {
    WindowTimes t;
    // Ground truth and live evaluation, exactly as PipelineDriver::Run.
    int64_t mark = NowNs();
    for (std::vector<int>& row : truth) row.clear();
    for (const data::Interaction& x : log.window(w)) {
      if (ingestor.sampler()->IsPositive(x.user, x.item)) continue;
      std::vector<int>& row = truth[x.user];
      if (std::find(row.begin(), row.end(), x.item) == row.end()) {
        row.push_back(x.item);
      }
    }
    std::vector<std::pair<int, std::future<serve::RankResponse>>> pending;
    for (int u = 0; u < s.dataset.num_users; ++u) {
      if (!truth[u].empty()) pending.emplace_back(u, server.Submit(u, kEvalK));
    }
    double ndcg = 0.0;
    long users = 0;
    for (auto& [user, future] : pending) {
      serve::RankResponse response = future.get();
      ++users;
      if (!response.status.ok()) {
        failure = response.status;
        continue;
      }
      ndcg += eval::NdcgAtK(response.items, truth[user], kEvalK);
    }
    if (users > 0) ndcg /= static_cast<double>(users);
    out.window_ndcg.push_back(ndcg);
    t.eval = 1e-9 * static_cast<double>(NowNs() - mark);

    // A window arrives: ingest, warm retrain, snapshot, background
    // build + publish.
    const int64_t arrive = NowNs();
    t.arrive_ns = arrive;
    auto ingested = ingestor.Ingest(log.window(w));
    if (!ingested.ok()) {
      failure = ingested.status();
      break;
    }
    const int64_t ingest_end = NowNs();
    out.ingested += ingested->appended;
    t.ingest = 1e-9 * static_cast<double>(ingest_end - arrive);
    const uint64_t next = ++generation;
    const std::string next_path = SnapPath(s.dir, next);
    if (epochs != nullptr) epochs->Reset();
    core::TrainResources resources = ingestor.Resources();
    auto round = trainer.Resume(prev, ingestor.dataset(), ingestor.split(),
                                &resources, next_path);
    if (!round.ok()) {
      failure = round.status();
      break;
    }
    const int64_t train_end = NowNs();
    t.snapshot_write = round->snapshot_seconds;
    t.train = 1e-9 * static_cast<double>(train_end - ingest_end) - t.snapshot_write;
    if (epochs != nullptr && epochs->samples > 0) {
      t.us_per_pair = 1e6 * epochs->seconds / static_cast<double>(epochs->samples);
      t.logic = epochs->logic_seconds;
      t.mining = epochs->mining_seconds;
    }
    std::promise<Status> published;
    std::future<Status> published_future = published.get_future();
    int64_t build_end = 0, callback_at = 0;
    t.swap_begin_ns = NowNs();
    server.SwapWhenReady(
        [&, next, next_path] {
          auto built = serve::ServableModel::FromSnapshot(
              next_path, baselines::MakeModel, &ingestor.split(), next,
              options.retrieval);
          build_end = NowNs();
          return built;
        },
        [&](const Result<std::shared_ptr<const serve::ServableModel>>& r) {
          callback_at = NowNs();
          if (r.ok()) {
            std::lock_guard<std::mutex> lock(gen_mu);
            generations[next] = *r;
          }
          published.set_value(r.ok() ? Status::OK() : r.status());
        });
    const Status swap_status = published_future.get();
    t.swap_end_ns = callback_at;
    if (!swap_status.ok()) {
      failure = swap_status;
      break;
    }
    t.build = 1e-9 * static_cast<double>(build_end - t.swap_begin_ns);
    t.publish_wait = 1e-9 * static_cast<double>(callback_at - build_end);
    t.freshness = 1e-9 * static_cast<double>(callback_at - arrive);
    out.windows.push_back(t);
    prev = next_path;
  }
  stop.store(true);
  generator.join();
  server.Stop();  // every accepted callback has fired after this
  out.stats = server.Stats();
  out.cpu_s = CpuSeconds() - cpu_begin;
  if (!failure.ok()) return failure;
  out.live_sent = sent.load();
  out.live.resize(out.live_sent);
  std::error_code ec;
  out.snapshot_bytes = std::filesystem::file_size(prev, ec);

  double ndcg_sum = 0.0;
  for (double v : out.window_ndcg) ndcg_sum += v;
  out.ndcg = out.window_ndcg.empty() ? 0.0 : ndcg_sum / out.window_ndcg.size();

  // Every sampled ok live reply must equal the generation it names,
  // ranked in-process through the same servable.
  eval::RetrieveScratch scratch;
  std::vector<int> want;
  for (size_t i = 0; i < out.live.size(); i += kVerifyStride) {
    const LiveRecord& rec = out.live[i];
    if (rec.status != 0) continue;
    const std::vector<int>& got = out.sampled_items[i / kVerifyStride];
    auto it = generations.find(rec.generation);
    ++out.live_checked;
    if (it == generations.end()) {
      ++out.live_mismatch;
      continue;
    }
    it->second->RetrieveRanked(rec.user, kEvalK, &scratch, &want);
    if (want != got) {
      ++out.live_mismatch;
      continue;
    }
    out.live_recall += OverlapAtK(got, want, 10);
  }
  std::filesystem::remove_all(s.dir);
  return out;
}

double Mean(const std::vector<WindowTimes>& w, double WindowTimes::*field) {
  double sum = 0.0;
  for (const WindowTimes& t : w) sum += t.*field;
  return w.empty() ? 0.0 : sum / static_cast<double>(w.size());
}

/// Per-window NDCG of PipelineDriver::Run with no live load, cached in
/// `path` as exact hex floats. It depends only on the build and the fixed
/// dataset and config; run.py names `path` after a hash of this binary,
/// so a rebuild computes it afresh.
Result<std::vector<double>> ReferenceNdcg(const Setup& s, const std::string& path) {
  std::vector<double> ndcg;
  if (std::FILE* f = std::fopen(path.c_str(), "r")) {
    double v = 0.0;
    while (std::fscanf(f, "%la", &v) == 1) ndcg.push_back(v);
    std::fclose(f);
    if (!ndcg.empty()) return ndcg;
  }
  pipeline::PipelineOptions options = s.options;
  options.snapshot_dir = s.dir + "/reference";
  std::filesystem::create_directories(options.snapshot_dir);
  auto report = pipeline::PipelineDriver(options, s.config).Run(s.dataset);
  std::filesystem::remove_all(options.snapshot_dir);
  if (!report.ok()) return report.status();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + tmp);
  for (const pipeline::WindowReport& w : report->windows) {
    ndcg.push_back(w.ndcg);
    std::fprintf(f, "%a\n", w.ndcg);
  }
  std::fclose(f);
  std::filesystem::rename(tmp, path);
  return ndcg;
}

}  // namespace

/// pipeline --dir --reference (--reference-only | --seed --trace)
/// Prints one JSON object with per-rep figures and raw samples for run.py.
int RunPipeline(const Args& args) {
  PinToOneCpu();
  // One CPU, so one malloc arena: more arenas only add fragmentation that
  // differs from run to run (peak RSS spread 5% over ten runs without).
  mallopt(M_ARENA_MAX, 1);
  Setup s;
  s.dir = args.Str("dir");
  auto dataset = data::GenerateBenchmarkDataset("cd", 2.0);
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  s.dataset = std::move(*dataset);
  s.config.dim = 32;
  s.config.layers = 3;
  s.config.epochs = 30;
  s.config.learning_rate = 0.05;
  s.config.seed = 7;
  s.config.num_threads = kTrainThreads;
  s.options.num_windows = 8;
  s.options.bootstrap_windows = 2;
  s.options.eval_k = kEvalK;
  s.options.trainer.model = "LogiRec++";
  s.options.trainer.fine_tune_epochs = 2;
  s.options.server.num_threads = kServerThreads;
  // Room for a window's evaluation burst (blocking Submit of every
  // evaluated user) next to the live traffic, so live requests are not
  // shed while a window is evaluated.
  s.options.server.max_queue = 4096;
  s.options.live_load_threads = 0;

  auto reference = ReferenceNdcg(s, args.Str("reference"));
  if (!reference.ok()) {
    std::fprintf(stderr, "%s\n", reference.status().ToString().c_str());
    return 1;
  }
  if (args.Has("reference-only")) return 0;
  s.seed = static_cast<uint64_t>(args.Int("seed"));
  const bool trace = args.Int("trace") != 0;

  std::vector<RepResult> results;
  EpochCollector epochs;
  const std::string base_dir = s.dir;
  // The traced run makes one untraced and one traced replay; their
  // freshness difference is the tracing overhead.
  const int total = trace ? 2 : kReps;
  for (int r = 0; r < total; ++r) {
    s.dir = base_dir + "/rep" + std::to_string(r);
    auto rep = RunRep(s, trace && r == 1 ? &epochs : nullptr);
    if (!rep.ok()) {
      std::fprintf(stderr, "%s\n", rep.status().ToString().c_str());
      return 1;
    }
    results.push_back(std::move(*rep));
  }

  Json j;
  bool identical = true;
  long attempted = 0, ok = 0, checked = 0, mismatch = 0;
  double recall = 0.0;
  std::vector<double> setup, fit_full, cpu_per_req, qps, in_swap_ms, out_swap_ms;
  std::vector<double> latency_ms, window_p50_ms;
  for (const RepResult& r : results) {
    identical = identical && r.window_ndcg == results[0].window_ndcg;
    setup.push_back(r.setup_s);
    fit_full.push_back(r.fit_full_s);
    // Latency of the reads that run beside a window's writes (ingest ->
    // publish), per window; reads queued behind a window's evaluation
    // burst are not in it. Per batch of those reads, its ok replies and
    // its first and last reply.
    std::vector<std::vector<double>> window_ms(r.windows.size());
    const size_t num_batches = (r.live.size() + kLiveBatch - 1) / kLiveBatch;
    std::vector<long> batch_ok(num_batches, 0);
    std::vector<int64_t> batch_first_ns(num_batches, INT64_MAX);
    std::vector<int64_t> batch_last_ns(num_batches, 0);
    std::vector<bool> batch_in_write(num_batches, false);
    long rep_ok = -r.live_mismatch;
    for (size_t i = 0; i < r.live.size(); ++i) {
      const LiveRecord& rec = r.live[i];
      ++attempted;
      if (rec.status != 0) continue;
      ++rep_ok;
      const double ms = 1e-6 * static_cast<double>(rec.done_ns - rec.sched_ns);
      bool in_write = false, in_swap = false;
      for (size_t w = 0; w < r.windows.size(); ++w) {
        const WindowTimes& t = r.windows[w];
        if (rec.sched_ns >= t.arrive_ns && rec.sched_ns < t.swap_end_ns) {
          in_write = true;
          window_ms[w].push_back(ms);
          latency_ms.push_back(ms);
        }
        in_swap = in_swap || (rec.sched_ns >= t.swap_begin_ns && rec.sched_ns < t.swap_end_ns);
      }
      (in_swap ? in_swap_ms : out_swap_ms).push_back(ms);
      const size_t b = i / kLiveBatch;
      ++batch_ok[b];
      batch_first_ns[b] = std::min(batch_first_ns[b], rec.done_ns);
      batch_last_ns[b] = std::max(batch_last_ns[b], rec.done_ns);
      batch_in_write[b] = in_write;
    }
    ok += rep_ok;
    checked += r.live_checked;
    mismatch += r.live_mismatch;
    recall += r.live_recall;
    for (const std::vector<double>& v : window_ms) {
      if (!v.empty()) window_p50_ms.push_back(Median(v));
    }
    cpu_per_req.push_back(r.ingested > 0 ? 1e6 * r.cpu_s / r.ingested : 0.0);
    // Correct replies per second while a batch beside writes drains,
    // first to last reply: the server sets this pace, while the live
    // reads' average rate is fixed by the schedule.
    for (size_t b = 0; b < num_batches; ++b) {
      if (batch_in_write[b] && batch_ok[b] > 1 && batch_last_ns[b] > batch_first_ns[b]) {
        qps.push_back(1e9 * static_cast<double>(batch_ok[b] - 1) /
                      static_cast<double>(batch_last_ns[b] - batch_first_ns[b]));
      }
    }
  }
  // Freshness: per window, the median over reps (a host hiccup in one
  // rep does not move it), then the mean over windows.
  double freshness = 0.0;
  const size_t windows = results[0].windows.size();
  for (size_t w = 0; w < windows; ++w) {
    std::vector<double> per_rep;
    for (const RepResult& r : results) per_rep.push_back(r.windows[w].freshness);
    freshness += Median(per_rep) / static_cast<double>(windows);
  }
  const bool matches_reference = results[0].window_ndcg == *reference;
  j.Num("identical_across_reps", identical ? 1 : 0);
  j.Num("matches_reference", matches_reference ? 1 : 0);
  j.Num("attempted", static_cast<double>(attempted));
  j.Num("ok", static_cast<double>(ok));
  j.Num("checked", static_cast<double>(checked));
  j.Num("mismatch", static_cast<double>(mismatch));
  j.Num("recall_at_10", checked - mismatch > 0 ? recall / (checked - mismatch) : 0.0);
  j.Num("ndcg_at_20", results[0].ndcg);
  j.Num("freshness_s", freshness);
  j.Array("setup_s", setup);
  j.Array("fit_full_s", fit_full);
  j.Array("cpu_us_per_req", cpu_per_req);
  j.Array("batch_qps", qps);
  j.Array("window_p50_ms", window_p50_ms);
  j.Array("latency_ms", latency_ms);
  j.Num("peak_rss_mb", ReadVmHwmKb("/proc/self/status") / 1024.0);
  int64_t late_max_ns = 0;
  for (const RepResult& r : results) late_max_ns = std::max(late_max_ns, r.late_max_ns);
  j.Num("late_max_ms", 1e-6 * static_cast<double>(late_max_ns));
  if (trace) {
    const RepResult& plain = results[0];
    const RepResult& traced = results[1];
    const std::vector<WindowTimes>& w = traced.windows;
    const double fresh = Mean(w, &WindowTimes::freshness);
    const double self_sum = Mean(w, &WindowTimes::ingest) + Mean(w, &WindowTimes::train) +
                            Mean(w, &WindowTimes::snapshot_write) +
                            Mean(w, &WindowTimes::build) + Mean(w, &WindowTimes::publish_wait);
    j.Num("pipeline.ingest_s", Mean(w, &WindowTimes::ingest));
    j.Num("pipeline.train_s", Mean(w, &WindowTimes::train));
    j.Num("core.trainer.us_per_pair.first", w.empty() ? 0.0 : w.front().us_per_pair);
    j.Num("core.trainer.us_per_pair.last", w.empty() ? 0.0 : w.back().us_per_pair);
    j.Num("core.trainer.logic_s", Mean(w, &WindowTimes::logic));
    j.Num("core.trainer.mining_s", Mean(w, &WindowTimes::mining));
    j.Num("core.snapshot.write_s", Mean(w, &WindowTimes::snapshot_write));
    j.Num("core.snapshot.bytes", static_cast<double>(traced.snapshot_bytes));
    j.Num("serve.servable.build_s", Mean(w, &WindowTimes::build));
    j.Num("serve.server.publish_wait_s", Mean(w, &WindowTimes::publish_wait));
    j.Num("pipeline.eval_s", Mean(w, &WindowTimes::eval));
    j.Num("pipeline.residual_s", fresh - self_sum);
    j.Num("pipeline.fit_full_s", traced.fit_full_s);
    j.Num("trace.overhead_s", fresh - Mean(plain.windows, &WindowTimes::freshness));
    j.Num("completed", static_cast<double>(traced.stats.requests_completed));
    j.Num("batches", static_cast<double>(traced.stats.batches_dispatched));
    j.Num("queue_max", static_cast<double>(traced.stats.max_queue_depth));
    j.Num("server_shed", static_cast<double>(traced.stats.requests_shed));
    j.Array("submit_ms_in_swap", in_swap_ms);
    j.Array("submit_ms_out_swap", out_swap_ms);
  }
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

}  // namespace perfbench
