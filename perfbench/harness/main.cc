// perfbench_harness: the compiled half of the benchmark (perfbench/run.py
// is the driver). Subcommands:
//   fixture     build a serving fixture (dataset dir + snapshot)
//   oracle      check loadgen records against in-process rankings
//   loadgen     the TCP load generator (separate client process)
//   serve-host  in-process NetServer/ModelServer host for the traced run
//   pipeline    the pipeline_warm workload (in-process)
//   selftest    the harness's own tests

#include <cstdio>
#include <string>

#include "common.h"

namespace perfbench {
int RunFixture(const Args& args);
int RunOracle(const Args& args);
int RunLoadgen(const Args& args);
int RunServeHost(const Args& args);
int RunPipeline(const Args& args);
int RunSelftest(const Args& args);
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: perfbench_harness fixture|oracle|loadgen|serve-host|"
                 "pipeline|selftest --flag=value...\n");
    return 2;
  }
  const std::string cmd = argv[1];
  const Args args(argc, argv, 2);
  if (cmd == "fixture") return RunFixture(args);
  if (cmd == "oracle") return RunOracle(args);
  if (cmd == "loadgen") return RunLoadgen(args);
  if (cmd == "serve-host") return RunServeHost(args);
  if (cmd == "pipeline") return RunPipeline(args);
  if (cmd == "selftest") return RunSelftest(args);
  std::fprintf(stderr, "perfbench_harness: unknown subcommand %s\n", cmd.c_str());
  return 2;
}
