// ExecutorRuntime: a persistent, multi-query execution runtime.
//
// The per-query Executor runs one plan and tears everything down; a real
// node serves many in-flight queries from one worker pool. ExecutorRuntime
// models that: it owns the cluster's per-node worker capacity (the full
// widths Executor::ResolveNodeWorkers derives from the base options) and
// admits each submitted query into a *resource group* that decides
//
//   - how many of each node's workers the query is granted
//     (round(worker_share * W_i), clamped to [1, W_i]),
//   - where it sorts in the wait queue (priority desc, submission order
//     asc, with backfill — a small query may overtake a big one it cannot
//     unblock),
//   - how much estimated hash-build memory the group's in-flight queries
//     may pin (admission defers a query while the group is over budget;
//     an estimate larger than the whole budget is rejected outright).
//
// Admission is gang-style: a query starts only when every node can supply
// its granted worker count, so one node's contention prices the whole
// query — exactly the node-level queueing the cluster driver feeds back
// into kEnergyFeasibleFinish. Because every grant is at most the full
// width, any query can always run alone: a finite workload drains.
//
// Each admitted query executes on its own coordination thread via a
// per-query Executor configured with the granted widths, the runtime-wide
// span epoch, and the query's tag. All worker-activity spans land on one
// shared timeline as TaggedWorkerSpans, which energy::AttributeConcurrent
// turns into per-query joules for co-running mixes.
#ifndef EEDC_EXEC_RUNTIME_H_
#define EEDC_EXEC_RUNTIME_H_

#include <chrono>
#include <condition_variable>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"

namespace eedc::exec {

/// One worker-activity interval on the runtime's shared timeline, tagged
/// by the query that ran it. Wait spans (is_wait) mark exchange-receive
/// stalls inside the worker's busy span.
struct TaggedWorkerSpan {
  int query = 0;
  int node = 0;
  int worker = 0;
  Duration begin = Duration::Zero();
  Duration end = Duration::Zero();
  bool is_wait = false;
};

/// An admission class for submitted queries.
struct ResourceGroup {
  std::string name;
  /// Fraction of every node's full worker width granted to each query of
  /// this group, clamped to [1, W_i] workers per node.
  double worker_share = 1.0;
  /// Higher-priority groups admit first among waiting queries.
  int priority = 0;
  /// Ceiling on the summed estimated build bytes of the group's in-flight
  /// queries; <= 0 = unlimited. Queries whose own estimate exceeds the
  /// ceiling are rejected at submit (they could never be admitted).
  double memory_budget_bytes = 0.0;
};

/// Per-query submission knobs.
struct RuntimeQueryOptions {
  /// Resource group name; empty selects the built-in default group
  /// (share 1.0, priority 0, unlimited memory).
  std::string group;
  /// Estimated hash-join build footprint of this query (e.g. the
  /// cluster placement policy's build-size estimate), charged against the
  /// group's memory budget while in flight.
  double estimated_build_bytes = 0.0;
  /// Per-query cooperative cancellation (see exec/cancel.h). Not owned.
  CancelToken* cancel = nullptr;
};

class ExecutorRuntime {
 public:
  /// A submitted query's handle. Wait() blocks until the query finishes
  /// and moves the result out (call once); the delay accessors are valid
  /// after Wait() returns.
  class Ticket {
   public:
    /// Blocks until the query completes (or the runtime shuts down) and
    /// returns its result. Consumes the result: call at most once.
    StatusOr<QueryResult> Wait();

    /// Time from submission to admission (zero when admitted at once).
    Duration queue_delay() const;
    /// The query's runtime-unique tag (MorselDispenser::query_tag,
    /// TaggedWorkerSpan::query).
    int query_id() const { return id_; }
    /// Workers granted on each node.
    const std::vector<int>& granted_workers() const { return granted_; }

   private:
    friend class ExecutorRuntime;
    enum class State { kWaiting, kRunning, kDone };

    int id_ = 0;
    std::string group;
    int priority = 0;
    long seq = 0;
    double estimated_build_bytes = 0.0;
    std::vector<int> granted_;
    Executor::NodePlanFn plan;
    CancelToken* cancel = nullptr;

    State state = State::kWaiting;  // guarded by the runtime mutex
    std::chrono::steady_clock::time_point submit_time;
    std::chrono::steady_clock::time_point start_time;

    mutable std::mutex done_mu;
    std::condition_variable done_cv;
    bool done = false;
    StatusOr<QueryResult> result{Status::Internal("query never ran")};
    Duration queue_delay_ = Duration::Zero();
  };
  using TicketPtr = std::shared_ptr<Ticket>;

  /// The runtime serves `data` with the worker capacity and per-node
  /// execution knobs of `base_options` (node_workers/node_classes/
  /// workers_per_node resolve to the full per-node widths; cancel,
  /// activity_listener, query_tag and span_epoch are per-query and
  /// ignored here).
  ExecutorRuntime(const ClusterData* data, Executor::Options base_options);

  /// Fails queries still waiting, then joins every in-flight query.
  ~ExecutorRuntime();

  ExecutorRuntime(const ExecutorRuntime&) = delete;
  ExecutorRuntime& operator=(const ExecutorRuntime&) = delete;

  /// Registers an admission group. Fails on duplicate names or
  /// non-finite/non-positive shares.
  Status AddGroup(ResourceGroup group);

  /// Submits a query for execution under `options.group`; returns its
  /// ticket immediately (admission and execution proceed asynchronously).
  StatusOr<TicketPtr> Submit(Executor::NodePlanFn plan_for_node,
                             RuntimeQueryOptions options);
  /// Same-plan-everywhere convenience overload.
  StatusOr<TicketPtr> Submit(PlanPtr plan, RuntimeQueryOptions options);

  /// Snapshot of every worker-activity span recorded so far, on the
  /// runtime's shared timeline. Spans of a query are appended atomically
  /// when it finishes.
  std::vector<TaggedWorkerSpan> TaggedSpans() const;

  /// The shared timeline origin all spans are measured from.
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Full per-node worker widths (the capacity grants are carved from).
  const std::vector<int>& node_workers() const { return full_workers_; }

  /// Lifecycle metrics of this runtime: queries_{submitted,admitted,
  /// deferred,rejected,finished,cancelled} counters, queue_depth /
  /// in_flight_build_bytes gauges, and a queue_delay_seconds histogram.
  /// Always collected (control-path events only — never per morsel).
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Attaches a trace recorder: lifecycle instants (submit / defer /
  /// admit / finish / cancel) and per-query operator spans are recorded
  /// on the runtime's shared epoch (the recorder is rebased onto it).
  /// Call before submitting; not owned; null detaches.
  void AttachTrace(obs::TraceRecorder* trace);

 private:
  struct GroupState {
    ResourceGroup spec;
    double in_flight_bytes = 0.0;
  };

  /// Scans the wait queue in (priority desc, seq asc) order and admits
  /// every query whose worker grant and group memory fit, removing it
  /// from the queue. Caller holds mu_.
  void TryAdmitLocked();
  bool FitsLocked(const Ticket& t) const;
  void RunQuery(const TicketPtr& ticket);
  /// Joins the coordination threads of finished queries. Takes mu_.
  void ReapFinishedThreads();
  /// Refreshes the queue_depth / in_flight_build_bytes gauges; caller
  /// holds mu_.
  void UpdateGaugesLocked();

  const ClusterData* data_;
  Executor::Options base_options_;
  /// Base-option resolution outcome; a failed resolution surfaces from
  /// every Submit instead of crashing construction.
  Status init_status_ = Status::OK();
  std::vector<int> full_workers_;
  std::chrono::steady_clock::time_point epoch_;

  /// Lock order: mu_ before the registry/recorder internal mutexes
  /// (both are leaf locks; they never call back into the runtime).
  obs::MetricsRegistry metrics_;
  obs::TraceRecorder* trace_ = nullptr;  // set before submissions

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::string, GroupState> groups_;
  std::vector<int> free_;  // per-node unreserved worker slots
  std::deque<TicketPtr> waiting_;
  long next_seq_ = 0;
  int next_id_ = 0;
  bool shutdown_ = false;
  /// Coordination threads by query id. A thread appends its id to
  /// `finished_` as its last step; the next Submit joins and drops it, so
  /// a long-lived runtime holds no stacks for finished queries.
  std::map<int, std::thread> threads_;
  std::vector<int> finished_;

  mutable std::mutex spans_mu_;
  std::vector<TaggedWorkerSpan> spans_;
};

}  // namespace eedc::exec

#endif  // EEDC_EXEC_RUNTIME_H_
