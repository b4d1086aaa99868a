// Shared helpers of the benchmark harness: flag parsing, the monotonic
// clock, the counter RNG behind every request schedule, and a tiny JSON
// writer. Everything here is the benchmark's own code, so the parent
// commit and a change under test see identical schedules.
#ifndef PERFBENCH_HARNESS_COMMON_H_
#define PERFBENCH_HARNESS_COMMON_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// CLOCK_MONOTONIC nanoseconds; the same clock in every process on the
/// host, so client and server timestamps are comparable.
inline int64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

inline void SleepUntilNs(int64_t deadline_ns) {
  timespec ts;
  ts.tv_sec = deadline_ns / 1000000000LL;
  ts.tv_nsec = deadline_ns % 1000000000LL;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) != 0) {
  }
}

/// `--key=value` flags. Every flag the harness reads is required: run.py
/// states each value once, and a typo there fails loudly.
class Args {
 public:
  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string a = argv[i];
      if (a.rfind("--", 0) != 0) continue;
      const size_t eq = a.find('=');
      if (eq == std::string::npos) {
        values_[a.substr(2)] = "1";
      } else {
        values_[a.substr(2, eq - 2)] = a.substr(eq + 1);
      }
    }
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }
  std::string Str(const std::string& key) const {
    auto it = values_.find(key);
    if (it != values_.end()) return it->second;
    std::fprintf(stderr, "perfbench_harness: missing --%s\n", key.c_str());
    std::exit(2);
  }
  long Int(const std::string& key) const {
    return std::strtol(Str(key).c_str(), nullptr, 10);
  }
  double Num(const std::string& key) const {
    return std::strtod(Str(key).c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// SplitMix64 finalizer.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Counter RNG: a pure function of (seed, stream, index), uniform in
/// [0, 1). Request i of a schedule never depends on how many requests
/// came before it or on which thread asks.
inline double CounterUniform(uint64_t seed, uint64_t stream, uint64_t index) {
  const uint64_t h = Mix64(Mix64(seed) ^ Mix64(stream * 0x632be59bd9b4e019ULL) ^
                           Mix64(index + 0x2545f4914f6cdd1dULL));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// serve_closed_ivf's load: two pipelined connections with this many
/// requests in flight on each. The load generator and the in-process
/// replay of the traced run share it.
constexpr int kConns = 2;
constexpr int kDepth = 8;

/// User of request `index` of a workload seed's user sequence.
inline int ScheduleUser(uint64_t seed, uint64_t index, int num_users) {
  const int u = static_cast<int>(CounterUniform(seed, 1, index) * num_users);
  return u < num_users ? u : num_users - 1;
}

struct ScheduledRequest {
  int64_t at_ns = 0;  ///< offset from the schedule start
  int user = 0;
};

/// Poisson arrivals at `rate` per second over [0, seconds): exponential
/// gaps drawn from stream 0, users from stream 1 (pipeline_warm's live
/// reads).
inline std::vector<ScheduledRequest> OpenLoopSchedule(uint64_t seed,
                                                      double rate,
                                                      double seconds,
                                                      int num_users) {
  std::vector<ScheduledRequest> out;
  double t = 0.0;
  for (uint64_t i = 0;; ++i) {
    const double u = CounterUniform(seed, 0, i);
    t += -std::log1p(-u) / rate;
    if (t >= seconds) break;
    out.push_back({static_cast<int64_t>(t * 1e9), ScheduleUser(seed, i, num_users)});
  }
  return out;
}

inline double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Minimal JSON object writer (numbers, strings, number arrays).
class Json {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.17g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    Key(key);
    body_ += buf;
  }
  void Str(const std::string& key, const std::string& v) {
    Key(key);
    body_ += "\"" + v + "\"";
  }
  void Array(const std::string& key, const std::vector<double>& v) {
    Key(key);
    body_ += "[";
    char buf[64];
    for (size_t i = 0; i < v.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", v[i]);
      body_ += buf;
    }
    body_ += "]";
  }
  std::string Done() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + key + "\":";
  }
  std::string body_;
};

/// Top-k overlap of `got` with `want` over the first `k` of each.
inline double OverlapAtK(const std::vector<int>& got,
                         const std::vector<int>& want, int k) {
  int hits = 0;
  const size_t kg = std::min<size_t>(got.size(), k);
  const size_t kw = std::min<size_t>(want.size(), k);
  for (size_t i = 0; i < kg; ++i) {
    for (size_t j = 0; j < kw; ++j) {
      if (got[i] == want[j]) {
        ++hits;
        break;
      }
    }
  }
  return kw == 0 ? 1.0 : static_cast<double>(hits) / static_cast<double>(kw);
}

/// Parses "a,b,c" into ids; returns false on a malformed list.
inline bool ParseItems(const std::string& text, std::vector<int>* out) {
  out->clear();
  if (text.empty()) return true;
  const char* p = text.c_str();
  while (*p != '\0') {
    char* end = nullptr;
    const long v = std::strtol(p, &end, 10);
    if (end == p) return false;
    out->push_back(static_cast<int>(v));
    p = end;
    if (*p == ',') ++p;
  }
  return true;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_COMMON_H_
