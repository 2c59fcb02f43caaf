#include "host.h"

#include <sys/resource.h>

#include <chrono>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

namespace enginebench {

int HostThreads() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

double SpinMs() {
  const auto start = std::chrono::steady_clock::now();
  // A dependent multiply-add chain the compiler cannot fold or vectorize.
  volatile std::uint64_t sink = 0;
  std::uint64_t x = 0x9E3779B97F4A7C15ULL;
  for (std::uint64_t i = 0; i < 400'000'000ULL; ++i) {
    x = x * 6364136223846793005ULL + i;
  }
  sink = x;
  (void)sink;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

CpuTimes ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::string line;
  CpuTimes t;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return t;
  std::istringstream fields(line.substr(4));
  // user nice system idle iowait irq softirq steal [guest guest_nice];
  // guest time is already inside user/nice, so only the first eight sum.
  std::uint64_t v = 0;
  for (int i = 0; i < 8 && fields >> v; ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double StealShare(const CpuTimes& begin, const CpuTimes& end) {
  if (end.total <= begin.total) return 0.0;
  return static_cast<double>(end.steal - begin.steal) /
         static_cast<double>(end.total - begin.total);
}

int TcpTimeWait() {
  std::ifstream in("/proc/net/sockstat");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("TCP:", 0) != 0) continue;
    std::istringstream fields(line.substr(4));
    std::string key;
    int value = 0;
    while (fields >> key >> value) {
      if (key == "tw") return value;
    }
  }
  return -1;
}

double DrainTimeWait(int below, double max_s) {
  const auto start = std::chrono::steady_clock::now();
  const auto waited = [&] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  while (TcpTimeWait() >= below && waited() < max_s) {
    std::this_thread::sleep_for(std::chrono::milliseconds(250));
  }
  return waited();
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) * 1024.0 / 1e6;  // KiB
}

std::string CompilerName() {
#if defined(__clang__)
  return std::string("Clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("GCC ") + __VERSION__;
#else
  return "unknown";
#endif
}

}  // namespace enginebench
