// The engine benchmark's workloads and the metrics it reports.
//
// Every workload runs the paper's engine design point — a 1B,2W fleet of
// NodeClassRegistry::PaperDefault() classes — closed-loop through one of
// the engine's public entry points, with class widths capped so the
// pipelines in flight stay near the host's thread count:
//
//   large_mix    EngineFleet::Create / RunOnce, SF 0.1, 1 client,
//                widths beefy 2 / wimpy 1, in-process transport
//   short_corun  ExecutorRuntime::Submit / Ticket::Wait, SF 0.002,
//                2 clients, widths 2 / 2, each query granted half of
//                every node's width so two queries co-run
//   process_mix  EngineFleet::MeasureProcess, SF 0.01, 1 client,
//                widths 2 / 1, one forked OS process per node
//
// An untraced run (trace off) reports the end-to-end metrics. A traced
// run times the calls into each layer from outside, reads the metrics
// those calls return, and reports the per-layer metrics.
#ifndef ENGINEBENCH_WORKLOADS_H_
#define ENGINEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace enginebench {

enum class Entry { kFleetRunOnce, kRuntime, kProcess };

struct WorkloadSpec {
  std::string name;
  Entry entry = Entry::kFleetRunOnce;
  double scale_factor = 0.0;
  int beefy_workers = 0;
  int wimpy_workers = 0;
  int clients = 1;
  /// Share of every node's width one query is granted (kRuntime only).
  double worker_share = 1.0;
  /// Set-ups per run; setup_s is their median. Cheap set-ups repeat more
  /// often so their median is steady.
  int setups = 3;
  /// The highest tail percentile every run of the workload supports (at
  /// least 10 samples beyond it on the slowest host seen), so that
  /// latency_tail_ms does not switch percentile from run to run.
  int tail_percentile = 99;
};

const std::vector<WorkloadSpec>& Workloads();
/// Null for an unknown name.
const WorkloadSpec* FindWorkload(std::string_view name);

/// A reported metric: its unit and, for a per-layer metric, the end-to-end
/// metric (and workload) it is expected to move.
struct MetricDef {
  std::string name;
  std::string unit;
  std::string target;
};
/// Printed by every untraced run, in this order. Only the first
/// kGatedEndToEnd are in the result line's `metrics`; the rest cannot be
/// measured on every workload or are zero by design (see README.md).
const std::vector<MetricDef>& EndToEndMetrics();
inline constexpr int kGatedEndToEnd = 8;
/// Reported by every traced run, in this order.
const std::vector<MetricDef>& LayerMetrics();

struct RunOptions {
  const WorkloadSpec* spec = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory the result file, per-layer table and Chrome trace go to.
  std::string out_dir;
};

/// Runs one workload, prints the human-readable report and, as the last
/// line of stdout, the JSON result. Returns the process exit code: 0 when
/// a result was printed (even one with failures), non-zero when the run
/// could not produce one.
int RunWorkload(const RunOptions& options);

}  // namespace enginebench

#endif  // ENGINEBENCH_WORKLOADS_H_
