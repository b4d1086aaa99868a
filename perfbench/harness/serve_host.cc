// The traced serving run: hosts serve::net::NetServer, ModelServer and
// ServableModel in-process, built the way tools/logirec_serve builds
// them, and records spans around the calls into each layer. run.py
// drives it over stdin while the load generator replays the workload's
// closed loop over TCP:
//
//   trace on|off      record per-request session spans (or not)
//   spans             JSON: the session spans recorded since the last
//                     toggle (connection, sequence, duration) and the
//                     ServerStats counters
//   inproc SEED WARMUP SECONDS USERS K
//                     replay the same closed loop in-process through
//                     ModelServer::TrySubmit; JSON: submit->callback ms
//   rank SEED N K     single-thread ServableModel::RetrieveRanked and the
//                     exact ScoreItemsInto + TopKInto baseline over the
//                     seed's first N users; JSON
//   quit

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <deque>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/model_zoo.h"
#include "common.h"
#include "core/snapshot.h"
#include "data/io.h"
#include "eval/metrics.h"
#include "retrieval/retriever.h"
#include "serve/net/net_server.h"
#include "serve/servable.h"
#include "serve/server.h"
#include "serve/session.h"

namespace perfbench {

using namespace logirec;

namespace {

/// Span store. A "serve.session" span runs from a request line handed to
/// the session to its reply drained by the transport; its parent is the
/// client's request, identified by (connection, sequence number on that
/// connection) — connections are numbered in accept order, which is the
/// load generator's connect order.
struct SpanStore {
  std::atomic<bool> on{false};
  std::atomic<int> next_conn{0};
  std::mutex mu;
  std::vector<double> conn, seq, session_ms;
};

/// LineSession decorator timing the protocol session from the benchmark's
/// side of the serve/net boundary.
class TracingSession : public serve::net::LineSession {
 public:
  TracingSession(std::shared_ptr<serve::ProtocolSession> inner, SpanStore* spans)
      : inner_(std::move(inner)), spans_(spans), conn_(spans->next_conn++) {}

  void HandleLine(const std::string& line) override {
    if (!line.empty()) {
      std::lock_guard<std::mutex> lock(mu_);
      started_.push_back(NowNs());
    }
    inner_->HandleLine(line);
  }
  void DrainReady(std::vector<std::string>* replies, bool* close_after) override {
    const size_t before = replies->size();
    inner_->DrainReady(replies, close_after);
    const int64_t now = NowNs();
    std::vector<double> done;
    long first_seq = 0;
    {
      std::lock_guard<std::mutex> lock(mu_);
      first_seq = seq_;
      for (size_t i = before; i < replies->size() && !started_.empty(); ++i) {
        done.push_back(1e-6 * static_cast<double>(now - started_.front()));
        started_.pop_front();
        ++seq_;
      }
    }
    if (spans_->on.load(std::memory_order_relaxed) && !done.empty()) {
      std::lock_guard<std::mutex> lock(spans_->mu);
      for (size_t i = 0; i < done.size(); ++i) {
        spans_->conn.push_back(conn_);
        spans_->seq.push_back(static_cast<double>(first_seq + static_cast<long>(i)));
        spans_->session_ms.push_back(done[i]);
      }
    }
  }
  bool HasPending() const override { return inner_->HasPending(); }
  void SetFlushHook(std::function<void()> hook) override {
    inner_->SetFlushHook(std::move(hook));
  }
  std::string FramingErrorReply(const Status& error) override {
    return inner_->FramingErrorReply(error);
  }

 private:
  std::shared_ptr<serve::ProtocolSession> inner_;
  SpanStore* spans_;
  const int conn_;
  std::mutex mu_;
  std::deque<int64_t> started_;
  long seq_ = 0;
};

/// Counts the candidates an index (or the exact scan) examines: every
/// candidate passes through the seen-item filter exactly once.
class CountingSeenFilter : public eval::ItemFilter {
 public:
  explicit CountingSeenFilter(const std::vector<int>* seen) : seen_(seen) {}
  bool Excluded(int item) const override {
    ++calls;
    return std::binary_search(seen_->begin(), seen_->end(), item);
  }
  mutable long calls = 0;

 private:
  const std::vector<int>* seen_;
};

double Seconds(int64_t begin) { return 1e-9 * static_cast<double>(NowNs() - begin); }

void PrintStats(const serve::ServerStats& st, Json* j) {
  j->Num("completed", static_cast<double>(st.requests_completed));
  j->Num("batches", static_cast<double>(st.batches_dispatched));
  j->Num("queue_max", static_cast<double>(st.max_queue_depth));
  j->Num("shed", static_cast<double>(st.requests_shed));
  j->Num("failed", static_cast<double>(st.requests_failed));
}

}  // namespace

int RunServeHost(const Args& args) {
  const int64_t setup_begin = NowNs();
  auto dataset = data::LoadDataset(args.Str("data"));
  if (!dataset.ok()) {
    std::fprintf(stderr, "%s\n", dataset.status().ToString().c_str());
    return 1;
  }
  const data::Split split = data::TemporalSplit(*dataset);
  const double data_load_s = Seconds(setup_begin);

  auto kind = retrieval::ParseRetrievalKind(args.Str("retrieval"));
  if (!kind.ok()) return 2;
  retrieval::RetrievalOptions retrieval_options;
  retrieval_options.kind = *kind;
  if (!eval::ParseScorePrecision(args.Str("precision"),
                                 &retrieval_options.precision)) {
    return 2;
  }
  const std::string snapshot = args.Str("snapshot");
  // The generation exactly as logirec_serve builds it.
  int64_t mark = NowNs();
  auto servable = serve::ServableModel::FromSnapshot(
      snapshot, baselines::MakeModel, &split, 1, retrieval_options);
  if (!servable.ok()) {
    std::fprintf(stderr, "%s\n", servable.status().ToString().c_str());
    return 1;
  }
  const double servable_build_s = Seconds(mark);
  const double setup_s = Seconds(setup_begin);
  // Its parts, timed as separate calls: snapshot restore and index build.
  mark = NowNs();
  auto restored = core::ModelSnapshot::Read(snapshot, baselines::MakeModel);
  if (!restored.ok()) return 1;
  const double snapshot_load_s = Seconds(mark);
  mark = NowNs();
  auto index = retrieval::BuildRetriever(**restored, retrieval_options);
  if (!index.ok()) return 1;
  const double retrieval_build_s = Seconds(mark);
  index->reset();
  restored->reset();

  serve::ServerOptions options;
  options.max_batch = 32;
  options.num_threads = static_cast<int>(args.Int("threads"));
  options.default_k = 10;
  options.max_queue = 1024;
  serve::ModelServer server(options);
  server.Swap(*servable);
  std::atomic<uint64_t> generation{1};
  auto context = std::make_shared<serve::ProtocolSession::Context>();
  context->server = &server;
  context->split = &split;
  context->generation = &generation;
  context->factory = baselines::MakeModel;
  context->retrieval = retrieval_options;

  SpanStore spans;
  serve::net::NetServerOptions net_options;
  net_options.port = 0;
  serve::net::NetServer net(net_options, [context, &spans] {
    return std::make_shared<TracingSession>(
        std::make_shared<serve::ProtocolSession>(context), &spans);
  });
  if (!net.Start().ok()) return 1;

  {
    Json j;
    j.Num("data.load_s", data_load_s);
    j.Num("serve.servable.build_s", servable_build_s);
    j.Num("core.snapshot.load_s", snapshot_load_s);
    j.Num("retrieval.build_s", retrieval_build_s);
    j.Num("setup_s", setup_s);
    std::printf("setup %s\n", j.Done().c_str());
    std::fflush(stdout);
  }
  std::fprintf(stderr, "listening on 127.0.0.1:%d\n", net.port());

  std::thread control([&] {
    std::string line;
    while (std::getline(std::cin, line)) {
      std::istringstream in(line);
      std::string cmd;
      in >> cmd;
      Json j;
      if (cmd == "quit") break;
      if (cmd == "trace") {
        std::string mode;
        in >> mode;
        std::lock_guard<std::mutex> lock(spans.mu);
        spans.conn.clear();
        spans.seq.clear();
        spans.session_ms.clear();
        spans.on.store(mode == "on");
      } else if (cmd == "spans") {
        std::lock_guard<std::mutex> lock(spans.mu);
        j.Array("conn", spans.conn);
        j.Array("seq", spans.seq);
        j.Array("session_ms", spans.session_ms);
        PrintStats(server.Stats(), &j);
      } else if (cmd == "inproc") {
        uint64_t seed = 0;
        double warmup = 0, seconds = 0;
        int users = 1, k = 10;
        in >> seed >> warmup >> seconds >> users >> k;
        const int64_t start = NowNs() + 20000000;
        const int64_t from = start + static_cast<int64_t>(warmup * 1e9);
        const int64_t end = start + static_cast<int64_t>((warmup + seconds) * 1e9);
        std::mutex mu;
        std::condition_variable cv;
        long in_flight = 0;
        std::vector<double> latency;
        long failed = 0;
        auto submit = [&](int user, int64_t sched) {
          {
            std::lock_guard<std::mutex> lock(mu);
            ++in_flight;
          }
          const Status st = server.TrySubmit(user, k, [&, sched](serve::RankResponse r) {
            const int64_t done = NowNs();
            std::lock_guard<std::mutex> lock(mu);
            if (!r.status.ok()) ++failed;
            else if (sched >= from) latency.push_back(1e-6 * static_cast<double>(done - sched));
            --in_flight;
            cv.notify_all();
          });
          if (!st.ok()) {
            std::lock_guard<std::mutex> lock(mu);
            ++failed;
            --in_flight;
          }
        };
        SleepUntilNs(start);
        for (uint64_t i = 0; NowNs() < end; ++i) {
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] { return in_flight < kConns * kDepth; });
          }
          submit(ScheduleUser(seed, i, users), NowNs());
        }
        {
          std::unique_lock<std::mutex> lock(mu);
          cv.wait(lock, [&] { return in_flight == 0; });
        }
        j.Array("submit_ms", latency);
        j.Num("failed", static_cast<double>(failed));
      } else if (cmd == "rank") {
        uint64_t seed = 0;
        int n = 0, k = 10;
        in >> seed >> n >> k;
        const serve::ServableModel& model = **servable;
        std::vector<int> users;
        for (int i = 0; i < n; ++i) users.push_back(ScheduleUser(seed, i, model.num_users()));
        eval::RetrieveScratch scratch;
        std::vector<int> out, check, topk_scratch;
        std::vector<double> rank_us, exact_us;
        math::Vec scores(model.num_items());
        long candidates = 0, mismatch = 0;
        std::vector<int> seen;
        for (int user : users) {
          int64_t t = NowNs();
          model.RetrieveRanked(user, k, &scratch, &out);
          rank_us.push_back(1e-3 * static_cast<double>(NowNs() - t));
          t = NowNs();
          model.scorer().ScoreItemsInto(user, math::Span(scores), eval::ScoreMode::kRanking);
          model.MaskSeen(user, math::Span(scores));
          eval::TopKInto(math::ConstSpan(scores), k, &topk_scratch, &check);
          exact_us.push_back(1e-3 * static_cast<double>(NowNs() - t));
          // Candidates examined: the same retrieval through a counting
          // seen filter (train + validation, as the servable masks).
          seen = split.train[user];
          seen.insert(seen.end(), split.validation[user].begin(), split.validation[user].end());
          std::sort(seen.begin(), seen.end());
          CountingSeenFilter filter(&seen);
          model.scorer().RetrieveInto(user, k, &filter, &scratch, &check,
                                      k + static_cast<int>(seen.size()));
          candidates += filter.calls;
          if (check != out) ++mismatch;
        }
        const double per_query = users.empty() ? 0.0 : static_cast<double>(candidates) / users.size();
        j.Num("serve.servable.rank_us.p50", Median(rank_us));
        j.Num("eval.exact_rank_us.p50", Median(exact_us));
        j.Num("retrieval.candidates_per_query", per_query);
        j.Num("retrieval.useful_frac", per_query > 0 ? k / per_query : 0.0);
        j.Num("mismatch", static_cast<double>(mismatch));
      } else {
        j.Str("error", "unknown command");
      }
      std::printf("%s\n", j.Done().c_str());
      std::fflush(stdout);
    }
    net.Shutdown();
  });
  net.Run();
  control.join();
  server.Stop();
  return 0;
}

}  // namespace perfbench
