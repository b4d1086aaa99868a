// Self-tests of the harness's own code: schedule determinism and the
// /proc reader. (The percentile rule and run.py's /proc readers are
// tested by perfbench/test_benchlib.py.)

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common.h"
#include "proc.h"

namespace perfbench {

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selftest FAILED: %s\n", what);
    ++failures;
  }
}

bool SameSchedule(const std::vector<ScheduledRequest>& a,
                  const std::vector<ScheduledRequest>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].at_ns != b[i].at_ns || a[i].user != b[i].user) return false;
  }
  return true;
}

}  // namespace

int RunSelftest(const Args& args) {
  const std::string scratch = args.Str("scratch");
  const auto a = OpenLoopSchedule(11, 4000.0, 2.0, 4480);
  const auto b = OpenLoopSchedule(11, 4000.0, 2.0, 4480);
  const auto c = OpenLoopSchedule(12, 4000.0, 2.0, 4480);
  Expect(SameSchedule(a, b), "same seed gives the same schedule");
  Expect(!SameSchedule(a, c), "another seed gives another schedule");
  // The schedule is a prefix property: a longer horizon only appends.
  const auto longer = OpenLoopSchedule(11, 4000.0, 3.0, 4480);
  Expect(longer.size() > a.size() &&
             SameSchedule(a, std::vector<ScheduledRequest>(longer.begin(), longer.begin() + a.size())),
         "a longer horizon extends the schedule without changing it");
  // Poisson count over 2 s at 4000/s: 8000 +- 4 sigma (~358).
  Expect(a.size() > 7640 && a.size() < 8360, "arrival count matches the rate");
  bool in_range = true, ordered = true;
  for (size_t i = 0; i < a.size(); ++i) {
    in_range = in_range && a[i].user >= 0 && a[i].user < 4480;
    ordered = ordered && (i == 0 || a[i].at_ns >= a[i - 1].at_ns);
  }
  Expect(in_range, "users lie in [0, num_users)");
  Expect(ordered, "send times are non-decreasing");
  Expect(ScheduleUser(5, 17, 100) == ScheduleUser(5, 17, 100), "closed-loop users are a pure function");

  const std::string status = scratch + "/perfbench_selftest_status";
  {
    std::ofstream out(status);
    out << "Name:\tx\nVmPeak:\t  9999 kB\nVmHWM:\t    1234 kB\nVmRSS:\t 1000 kB\n";
  }
  Expect(ReadVmHwmKb(status) == 1234.0, "VmHWM is parsed from a status file");
  std::remove(status.c_str());
  Expect(ReadVmHwmKb(scratch + "/perfbench_no_such_file") < 0, "a missing file reads as -1");
  Expect(ReadVmHwmKb("/proc/self/status") > 0, "this process has a VmHWM");

  std::vector<int> items;
  Expect(ParseItems("3,1,2", &items) && items == std::vector<int>({3, 1, 2}), "item lists parse");
  Expect(!ParseItems("3,x", &items), "a malformed item list is rejected");
  Expect(OverlapAtK({1, 2, 3}, {3, 2, 9}, 3) == 2.0 / 3.0, "top-k overlap");
  if (failures == 0) std::printf("selftest ok\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
