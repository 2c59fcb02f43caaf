#include "exec/runtime.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.h"
#include "common/str_util.h"

namespace eedc::exec {

namespace {

/// Buffers one query's activity spans during its run. The executor emits
/// spans from the query's own coordination thread after the run, so no
/// locking is needed here; the runtime tags and publishes the batch under
/// its span lock afterwards.
class SpanCollector final : public WorkerActivityListener {
 public:
  void OnWorkerSpan(int node, int worker, Duration begin,
                    Duration end) override {
    spans_.push_back(TaggedWorkerSpan{0, node, worker, begin, end, false});
  }
  void OnWorkerWait(int node, int worker, Duration begin,
                    Duration end) override {
    spans_.push_back(TaggedWorkerSpan{0, node, worker, begin, end, true});
  }

  std::vector<TaggedWorkerSpan>& spans() { return spans_; }

 private:
  std::vector<TaggedWorkerSpan> spans_;
};

}  // namespace

StatusOr<QueryResult> ExecutorRuntime::Ticket::Wait() {
  std::unique_lock<std::mutex> lock(done_mu);
  done_cv.wait(lock, [this] { return done; });
  StatusOr<QueryResult> out = std::move(result);
  result = Status::FailedPrecondition("Ticket::Wait already consumed");
  return out;
}

Duration ExecutorRuntime::Ticket::queue_delay() const {
  std::unique_lock<std::mutex> lock(done_mu);
  return queue_delay_;
}

ExecutorRuntime::ExecutorRuntime(const ClusterData* data,
                                 Executor::Options base_options)
    : data_(data),
      base_options_(std::move(base_options)),
      epoch_(std::chrono::steady_clock::now()) {
  EEDC_CHECK(data_ != nullptr);
  // Per-query knobs in the base options would silently apply to every
  // submission; strip them so only Submit decides them.
  base_options_.cancel = nullptr;
  base_options_.activity_listener = nullptr;
  base_options_.query_tag = -1;
  base_options_.span_epoch.reset();
  auto workers_or =
      Executor::ResolveNodeWorkers(base_options_, data_->num_nodes());
  if (!workers_or.ok()) {
    init_status_ = workers_or.status();
  } else {
    full_workers_ = std::move(workers_or).value();
  }
  free_ = full_workers_;
  // The built-in default group: whole-node grants, no memory ceiling.
  groups_[""] = GroupState{ResourceGroup{"", 1.0, 0, 0.0}, 0.0};
}

void ExecutorRuntime::AttachTrace(obs::TraceRecorder* trace) {
  std::lock_guard<std::mutex> lock(mu_);
  if (trace != nullptr) trace->set_epoch(epoch_);
  trace_ = trace;
}

ExecutorRuntime::~ExecutorRuntime() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_.notify_all();
  for (auto& [id, t] : threads_) t.join();
}

void ExecutorRuntime::ReapFinishedThreads() {
  std::vector<std::thread> done;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const int id : finished_) {
      auto it = threads_.find(id);
      done.push_back(std::move(it->second));
      threads_.erase(it);
    }
    finished_.clear();
  }
  // Outside the lock: a finished thread may still be unwinding.
  for (std::thread& t : done) t.join();
}

Status ExecutorRuntime::AddGroup(ResourceGroup group) {
  if (group.name.empty()) {
    return Status::InvalidArgument("resource group name must be non-empty");
  }
  if (!(group.worker_share > 0.0) || !std::isfinite(group.worker_share)) {
    return Status::InvalidArgument(
        StrFormat("resource group '%s' worker_share must be positive",
                  group.name.c_str()));
  }
  std::lock_guard<std::mutex> lock(mu_);
  const std::string name = group.name;
  if (!groups_.emplace(name, GroupState{std::move(group), 0.0}).second) {
    return Status::AlreadyExists(
        StrFormat("resource group '%s' already registered", name.c_str()));
  }
  return Status::OK();
}

StatusOr<ExecutorRuntime::TicketPtr> ExecutorRuntime::Submit(
    PlanPtr plan, RuntimeQueryOptions options) {
  return Submit([plan](int) { return plan; }, std::move(options));
}

StatusOr<ExecutorRuntime::TicketPtr> ExecutorRuntime::Submit(
    Executor::NodePlanFn plan_for_node, RuntimeQueryOptions options) {
  ReapFinishedThreads();
  std::lock_guard<std::mutex> lock(mu_);
  EEDC_RETURN_IF_ERROR(init_status_);
  if (shutdown_) {
    return Status::Unavailable("executor runtime is shutting down");
  }
  auto it = groups_.find(options.group);
  if (it == groups_.end()) {
    return Status::NotFound(StrFormat("unknown resource group '%s'",
                                      options.group.c_str()));
  }
  const ResourceGroup& g = it->second.spec;
  if (g.memory_budget_bytes > 0.0 &&
      options.estimated_build_bytes > g.memory_budget_bytes) {
    metrics_.AddCounter("queries_rejected");
    if (trace_ != nullptr) {
      trace_->AddInstant(obs::TraceInstant{-1, -1, "reject", trace_->Now(),
                                           "group " + options.group});
    }
    return Status::ResourceExhausted(StrFormat(
        "query estimated build (%.0f B) exceeds resource group '%s' "
        "memory budget (%.0f B); it could never be admitted",
        options.estimated_build_bytes, options.group.c_str(),
        g.memory_budget_bytes));
  }
  auto ticket = std::make_shared<Ticket>();
  ticket->id_ = next_id_++;
  ticket->group = options.group;
  ticket->priority = g.priority;
  ticket->seq = next_seq_++;
  ticket->estimated_build_bytes = options.estimated_build_bytes;
  ticket->plan = std::move(plan_for_node);
  ticket->cancel = options.cancel;
  ticket->submit_time = std::chrono::steady_clock::now();
  ticket->granted_.reserve(full_workers_.size());
  for (const int w : full_workers_) {
    const int granted = static_cast<int>(
        std::lround(g.worker_share * static_cast<double>(w)));
    ticket->granted_.push_back(std::clamp(granted, 1, w));
  }
  // Keep the wait queue sorted (priority desc, seq asc): equal-priority
  // queries stay in submission order behind the new ticket's betters.
  auto pos = std::find_if(waiting_.begin(), waiting_.end(),
                          [&](const TicketPtr& o) {
                            return o->priority < ticket->priority;
                          });
  waiting_.insert(pos, ticket);
  metrics_.AddCounter("queries_submitted");
  if (trace_ != nullptr) {
    trace_->AddInstant(obs::TraceInstant{ticket->id_, -1, "submit",
                                         trace_->Now(),
                                         "group " + options.group});
  }
  TryAdmitLocked();
  if (ticket->state == Ticket::State::kWaiting) {
    // Not admitted on the spot: it queues until in-flight work releases
    // workers or group memory.
    metrics_.AddCounter("queries_deferred");
    if (trace_ != nullptr) {
      trace_->AddInstant(obs::TraceInstant{ticket->id_, -1, "defer",
                                           trace_->Now(),
                                           "group " + options.group});
    }
  }
  UpdateGaugesLocked();
  cv_.notify_all();
  threads_.try_emplace(ticket->id_, [this, ticket] {
    RunQuery(ticket);
    std::lock_guard<std::mutex> done_lock(mu_);
    finished_.push_back(ticket->id_);
  });
  return ticket;
}

void ExecutorRuntime::UpdateGaugesLocked() {
  metrics_.SetGauge("queue_depth", static_cast<double>(waiting_.size()));
  double in_flight = 0.0;
  for (const auto& [name, g] : groups_) in_flight += g.in_flight_bytes;
  metrics_.SetGauge("in_flight_build_bytes", in_flight);
}

bool ExecutorRuntime::FitsLocked(const Ticket& t) const {
  for (std::size_t i = 0; i < free_.size(); ++i) {
    if (t.granted_[i] > free_[i]) return false;
  }
  const GroupState& g = groups_.at(t.group);
  if (g.spec.memory_budget_bytes > 0.0 &&
      g.in_flight_bytes + t.estimated_build_bytes >
          g.spec.memory_budget_bytes) {
    return false;
  }
  return true;
}

void ExecutorRuntime::TryAdmitLocked() {
  // The queue is (priority desc, seq asc)-sorted, so this single pass is
  // priority-order admission with backfill: a query that does not fit is
  // skipped, later (smaller or lower-priority) ones may still start.
  for (auto it = waiting_.begin(); it != waiting_.end();) {
    Ticket& t = **it;
    if (!FitsLocked(t)) {
      ++it;
      continue;
    }
    for (std::size_t i = 0; i < free_.size(); ++i) {
      free_[i] -= t.granted_[i];
    }
    groups_.at(t.group).in_flight_bytes += t.estimated_build_bytes;
    t.state = Ticket::State::kRunning;
    t.start_time = std::chrono::steady_clock::now();
    metrics_.AddCounter("queries_admitted");
    if (trace_ != nullptr) {
      // "gang-start": every node's granted worker count is reserved as
      // one atomic admission decision.
      trace_->AddInstant(obs::TraceInstant{t.id_, -1, "gang-start",
                                           trace_->Now(),
                                           "group " + t.group});
    }
    it = waiting_.erase(it);
  }
}

void ExecutorRuntime::RunQuery(const TicketPtr& ticket) {
  obs::TraceRecorder* trace = nullptr;
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] {
      return ticket->state != Ticket::State::kWaiting || shutdown_;
    });
    trace = trace_;
    if (ticket->state == Ticket::State::kWaiting) {
      // Shut down before admission: withdraw from the queue and fail.
      waiting_.erase(std::remove(waiting_.begin(), waiting_.end(), ticket),
                     waiting_.end());
      ticket->state = Ticket::State::kDone;
      lock.unlock();
      {
        std::lock_guard<std::mutex> dlock(ticket->done_mu);
        ticket->result = Status::Unavailable(
            "executor runtime shut down before the query was admitted");
        ticket->done = true;
      }
      ticket->done_cv.notify_all();
      return;
    }
  }

  Executor::Options opts = base_options_;
  opts.node_workers = ticket->granted_;
  opts.query_tag = ticket->id_;
  opts.span_epoch = epoch_;
  opts.cancel = ticket->cancel;
  opts.trace = trace;
  SpanCollector collector;
  opts.activity_listener = &collector;
  Executor executor(data_, opts);
  StatusOr<QueryResult> result = executor.ExecutePerNode(ticket->plan);

  {
    std::lock_guard<std::mutex> lock(mu_);
    for (std::size_t i = 0; i < free_.size(); ++i) {
      free_[i] += ticket->granted_[i];
    }
    groups_.at(ticket->group).in_flight_bytes -=
        ticket->estimated_build_bytes;
    ticket->state = Ticket::State::kDone;
    const bool cancelled =
        !result.ok() && result.status().code() == StatusCode::kCancelled;
    metrics_.AddCounter(cancelled ? "queries_cancelled"
                                  : "queries_finished");
    metrics_.Observe(
        "queue_delay_seconds",
        std::chrono::duration<double>(ticket->start_time -
                                      ticket->submit_time)
            .count());
    if (trace_ != nullptr) {
      trace_->AddInstant(obs::TraceInstant{
          ticket->id_, -1, cancelled ? "cancel" : "finish", trace_->Now(),
          result.ok() ? "" : result.status().message()});
    }
    TryAdmitLocked();
    UpdateGaugesLocked();
  }
  cv_.notify_all();

  {
    std::lock_guard<std::mutex> slock(spans_mu_);
    for (TaggedWorkerSpan& s : collector.spans()) {
      s.query = ticket->id_;
      spans_.push_back(s);
    }
  }

  {
    std::lock_guard<std::mutex> dlock(ticket->done_mu);
    ticket->queue_delay_ = Duration::Seconds(
        std::chrono::duration<double>(ticket->start_time -
                                      ticket->submit_time)
            .count());
    ticket->result = std::move(result);
    ticket->done = true;
  }
  ticket->done_cv.notify_all();
}

std::vector<TaggedWorkerSpan> ExecutorRuntime::TaggedSpans() const {
  std::lock_guard<std::mutex> lock(spans_mu_);
  return spans_;
}

}  // namespace eedc::exec
