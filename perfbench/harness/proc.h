// /proc readers of the harness (its own peak resident set).
#ifndef PERFBENCH_HARNESS_PROC_H_
#define PERFBENCH_HARNESS_PROC_H_

#include <cstdlib>
#include <fstream>
#include <string>

namespace perfbench {

/// The "VmHWM:  <n> kB" line of a /proc/<pid>/status file, in kB; -1 when
/// the file or the line is missing.
inline double ReadVmHwmKb(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  return -1.0;
}

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_PROC_H_
