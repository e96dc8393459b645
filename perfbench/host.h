// Host facts and process resource counters, read from getrusage, clocks
// and /proc. Printed beside every run's numbers and used for the CPU,
// memory and page-fault metrics.
#ifndef DAR_PERFBENCH_HOST_H_
#define DAR_PERFBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// Whole-process CPU time and minor page faults since process start.
struct ProcessUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  int64_t minor_faults = 0;

  static ProcessUsage Now();
  double cpu_s() const { return user_s + sys_s; }
  ProcessUsage operator-(const ProcessUsage& earlier) const {
    return {user_s - earlier.user_s, sys_s - earlier.sys_s,
            minor_faults - earlier.minor_faults};
  }
};

/// CPU seconds consumed by the calling thread.
double ThreadCpuSeconds();

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Online processors.
int HostCpus();

/// The first "model name" of /proc/cpuinfo ("unknown" when absent).
std::string CpuModel();

/// Host-wide jiffy totals from the first line of /proc/stat.
struct CpuJiffies {
  uint64_t total = 0;
  uint64_t steal = 0;
  static CpuJiffies Now();
};

/// Share of host CPU time the hypervisor stole between two readings (0
/// when /proc/stat is unreadable or no time passed).
double StealShare(const CpuJiffies& begin, const CpuJiffies& end);

}  // namespace perfbench

#endif  // DAR_PERFBENCH_HOST_H_
