// Host readings recorded beside every result, so a host swing can be told
// apart from a program change: a fixed CPU loop timed before the run, the
// share of CPU time the hypervisor stole during it, and the coordinator's
// peak resident memory.
#ifndef ENGINEBENCH_HOST_H_
#define ENGINEBENCH_HOST_H_

#include <cstdint>
#include <string>

namespace enginebench {

/// Hardware threads the benchmark may use.
int HostThreads();

/// Milliseconds a fixed 400M-iteration integer loop takes on one thread.
double SpinMs();

/// Aggregate CPU jiffies from /proc/stat; all zero where it is missing.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
CpuTimes ReadCpuTimes();
/// Stolen share of all CPU time between two readings (0 without data).
double StealShare(const CpuTimes& begin, const CpuTimes& end);

/// TCP sockets in TIME_WAIT on this host (from /proc/net/sockstat; -1 when
/// it cannot be read).
int TcpTimeWait();

/// Sleeps until fewer than `below` TCP sockets are in TIME_WAIT, for at
/// most `max_s` seconds; returns the seconds waited.
double DrainTimeWait(int below, double max_s);

/// Peak resident set size of this process so far, in MB (1e6 bytes).
double PeakRssMb();

/// The compiler that built the benchmark, e.g. "GCC 12.2.0".
std::string CompilerName();

}  // namespace enginebench

#endif  // ENGINEBENCH_HOST_H_
