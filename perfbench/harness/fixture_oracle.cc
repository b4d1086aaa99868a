// Fixtures (dataset directory + model snapshot, built once per checkout
// by run.py and cached) and the oracle that checks what the server said.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "baselines/model_zoo.h"
#include "common.h"
#include "core/snapshot.h"
#include "data/io.h"
#include "data/synthetic.h"
#include "eval/metrics.h"
#include "retrieval/retriever.h"
#include "serve/servable.h"
#include "serve/server.h"

namespace perfbench {

using namespace logirec;

namespace {

constexpr size_t kOracleSample = 5000;

int Fail(const Status& status) {
  std::fprintf(stderr, "perfbench_harness: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

/// fixture --dir=D
///   The million preset at scale 0.1 (100k users x 10k items) with a
///   table-initialised LogiRec++: serving cost does not depend on fit
///   quality, and a 100k-user fit would dominate the build. The
///   generator's fixed default seed makes every checkout serve the same
///   catalog.
int RunFixture(const Args& args) {
  const std::string dir = args.Str("dir");
  auto generated = data::GenerateBenchmarkDataset("million", 0.1);
  if (!generated.ok()) return Fail(generated.status());
  std::filesystem::create_directories(dir + "/data");
  Status st = data::SaveDataset(*generated, dir + "/data");
  if (!st.ok()) return Fail(st);
  // Train on the dataset exactly as the server will load it.
  auto dataset = data::LoadDataset(dir + "/data");
  if (!dataset.ok()) return Fail(dataset.status());
  const data::Split split = data::TemporalSplit(*dataset);

  core::TrainConfig config;
  config.dim = 32;
  config.layers = 3;
  config.epochs = 0;
  config.seed = 7;
  auto model = baselines::MakeModel("LogiRec++", config);
  if (!model.ok()) return Fail(model.status());
  st = (*model)->Fit(*dataset, split);
  if (!st.ok()) return Fail(st);
  core::SnapshotHeader header;
  header.dim = config.dim;
  header.layers = config.layers;
  header.num_users = dataset->num_users;
  header.num_items = dataset->num_items;
  st = core::ModelSnapshot::Write(**model, header, dir + "/model.snap");
  if (!st.ok()) return Fail(st);
  std::printf("fixture: %d users, %d items, %zu interactions\n",
              dataset->num_users, dataset->num_items,
              dataset->interactions.size());
  return 0;
}

/// oracle --data --snapshot --retrieval --precision
/// A long-lived checker driven over stdin:
///   expect U K   -> "items a,b,..."  what the server under test must reply
///   check PATH   -> one JSON line over the loadgen records in PATH
///   quit
/// A reply must equal, item for item, what an in-process ServableModel
/// built with the server's own retrieval options returns on the same
/// snapshot. Recall and NDCG compare it with in-process ModelServer::Rank
/// on an f64 exact-scan generation of that snapshot. `check` looks at
/// kOracleSample evenly spaced ok replies.
int RunOracle(const Args& args) {
  auto dataset = data::LoadDataset(args.Str("data"));
  if (!dataset.ok()) return Fail(dataset.status());
  const data::Split split = data::TemporalSplit(*dataset);
  const std::string snapshot = args.Str("snapshot");
  auto kind = retrieval::ParseRetrievalKind(args.Str("retrieval"));
  if (!kind.ok()) return Fail(kind.status());
  retrieval::RetrievalOptions options;
  options.kind = *kind;
  if (!eval::ParseScorePrecision(args.Str("precision"),
                                 &options.precision)) {
    return Fail(Status::InvalidArgument("bad --precision"));
  }
  auto exact = serve::ServableModel::FromSnapshot(snapshot, baselines::MakeModel,
                                                  &split, 1, {});
  if (!exact.ok()) return Fail(exact.status());
  auto replica = serve::ServableModel::FromSnapshot(
      snapshot, baselines::MakeModel, &split, 1, options);
  if (!replica.ok()) return Fail(replica.status());
  serve::ServerOptions server_options;
  server_options.num_threads = 1;
  serve::ModelServer reference(server_options);
  reference.Swap(*exact);

  std::unordered_map<int64_t, std::vector<int>> want_memo;
  std::unordered_map<int64_t, std::vector<int>> ref_memo;
  eval::RetrieveScratch scratch;
  auto ref = [&](int user, int k) -> const std::vector<int>& {
    const int64_t key = static_cast<int64_t>(user) * 4096 + k;
    auto it = ref_memo.find(key);
    if (it != ref_memo.end()) return it->second;
    std::vector<int> out;
    const Status ranked = reference.Rank(user, k, &out);
    if (!ranked.ok()) out.clear();
    return ref_memo.emplace(key, std::move(out)).first->second;
  };
  auto want = [&](int user, int k) -> const std::vector<int>& {
    const int64_t key = static_cast<int64_t>(user) * 4096 + k;
    auto it = want_memo.find(key);
    if (it != want_memo.end()) return it->second;
    std::vector<int> out;
    (*replica)->RetrieveRanked(user, k, &scratch, &out);
    return want_memo.emplace(key, std::move(out)).first->second;
  };
  std::printf("ready %d\n", (*exact)->num_users());
  std::fflush(stdout);
  std::string line;
  while (std::getline(std::cin, line)) {
    std::istringstream in(line);
    std::string cmd;
    in >> cmd;
    if (cmd == "quit") break;
    if (cmd == "expect") {
      int user = 0, k = 0;
      in >> user >> k;
      const std::vector<int>& items = want(user, k);
      std::string text;
      for (size_t i = 0; i < items.size(); ++i) {
        text += (i ? "," : "") + std::to_string(items[i]);
      }
      std::printf("items %s\n", text.c_str());
    } else if (cmd == "check") {
      std::string path;
      in >> path;
      std::ifstream records(path);
      std::string header;
      std::getline(records, header);
      int k = 0;
      {
        std::istringstream h(header);
        std::string hash;
        long long start, from, to;
        h >> hash >> start >> from >> to >> k;
      }
      struct Ok {
        int user;
        std::string items;
      };
      std::vector<Ok> oks;
      std::string rec;
      while (std::getline(records, rec)) {
        std::istringstream r(rec);
        int conn = 0, user = 0, status = 0;
        long long sent, done;
        std::string items;
        r >> conn >> user >> sent >> done >> status >> items;
        if (status == 0) oks.push_back({user, items});
      }
      const size_t stride = std::max<size_t>(1, oks.size() / kOracleSample);
      long checked = 0, mismatch = 0;
      double recall = 0.0, ndcg = 0.0;
      std::vector<int> got;
      for (size_t i = 0; i < oks.size(); i += stride) {
        ++checked;
        if (!ParseItems(oks[i].items, &got) || got != want(oks[i].user, k)) {
          ++mismatch;
          continue;
        }
        const std::vector<int>& reference_items = ref(oks[i].user, k);
        recall += OverlapAtK(got, reference_items, 10);
        ndcg += eval::NdcgAtK(got, reference_items, 20);
      }
      const long matched = checked - mismatch;
      Json j;
      j.Num("checked", static_cast<double>(checked));
      j.Num("mismatch", static_cast<double>(mismatch));
      j.Num("recall_at_10", matched ? recall / matched : 0.0);
      j.Num("ndcg_at_20", matched ? ndcg / matched : 0.0);
      std::printf("%s\n", j.Done().c_str());
    } else {
      std::printf("error unknown command\n");
    }
    std::fflush(stdout);
  }
  reference.Stop();
  return 0;
}

}  // namespace perfbench
