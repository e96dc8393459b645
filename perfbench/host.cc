#include "host.h"

#include <sys/resource.h>
#include <time.h>
#include <unistd.h>

#include <fstream>
#include <sstream>

namespace perfbench {

ProcessUsage ProcessUsage::Now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {seconds(usage.ru_utime), seconds(usage.ru_stime),
          static_cast<int64_t>(usage.ru_minflt)};
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

int HostCpus() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<int>(n) : 1;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size()) {
        return line.substr(colon + 2);
      }
    }
  }
  return "unknown";
}

CpuJiffies CpuJiffies::Now() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuJiffies jiffies;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return jiffies;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice]; the
  // guest columns are already counted in user/nice.
  uint64_t value = 0;
  for (int column = 0; column < 8 && fields >> value; ++column) {
    jiffies.total += value;
    if (column == 7) jiffies.steal = value;
  }
  return jiffies;
}

double StealShare(const CpuJiffies& begin, const CpuJiffies& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

}  // namespace perfbench
