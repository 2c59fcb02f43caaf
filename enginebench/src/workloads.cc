#include "workloads.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <utility>

#include "cluster/cluster_config.h"
#include "cluster/node_class.h"
#include "cluster/placement.h"
#include "common/stats.h"
#include "energy/attribution.h"
#include "energy/meter.h"
#include "exec/executor.h"
#include "exec/runtime.h"
#include "host.h"
#include "net/control.h"
#include "net/inproc.h"
#include "net/process.h"
#include "obs/chrome_trace.h"
#include "obs/trace.h"
#include "report.h"
#include "tpch/dbgen.h"
#include "workload/engine.h"
#include "workload/profiles.h"

#ifndef ENGINEBENCH_BUILD_TYPE
#define ENGINEBENCH_BUILD_TYPE "unknown"
#endif

namespace enginebench {

namespace cluster = eedc::cluster;
namespace energy = eedc::energy;
namespace exec = eedc::exec;
namespace obs = eedc::obs;
namespace storage = eedc::storage;
namespace workload = eedc::workload;
using eedc::Status;
using eedc::StatusOr;

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> kAll = {
      {"large_mix", Entry::kFleetRunOnce, 0.1, 2, 1, 1, 1.0, 3, 85},
      {"short_corun", Entry::kRuntime, 0.002, 2, 2, 2, 0.5, 15, 99},
      {"process_mix", Entry::kProcess, 0.01, 2, 1, 1, 1.0, 7, 95},
  };
  return kAll;
}

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<MetricDef>& EndToEndMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"setup_s", "s", ""},          {"throughput_qps", "1/s", ""},
      {"q1_p50_ms", "ms", ""},       {"q3_p50_ms", "ms", ""},
      {"q12_p50_ms", "ms", ""},      {"q21_p50_ms", "ms", ""},
      {"latency_tail_ms", "ms", ""}, {"peak_rss_mb", "MB", ""},
      {"joules_per_query", "J", ""}, {"failed_frac", "fraction", ""},
  };
  return kDefs;
}

const std::vector<MetricDef>& LayerMetrics() {
  static const std::vector<MetricDef> kDefs = {
      {"tpch.generate_s", "s", "setup_s (all)"},
      {"storage.load_s", "s", "setup_s (all)"},
      {"cluster.place_s", "s", "setup_s (all)"},
      {"workload.create_s", "s", "setup_s (all)"},
      {"net.process.spawn_s", "s", "setup_s (process_mix)"},
      {"storage.loaded_mb", "MB", "peak_rss_mb (large_mix)"},
      {"exec.hash_table_mb", "MB", "peak_rss_mb (large_mix)"},
      {"exec.busy_ms_per_query", "ms",
       "throughput_qps, joules_per_query (large_mix)"},
      {"exec.stage.scan_ms", "ms", "q1_p50_ms (large_mix)"},
      {"exec.stage.filter_ms", "ms", "q1_p50_ms (large_mix)"},
      {"exec.stage.project_ms", "ms", "per-kind p50 (large_mix)"},
      {"exec.stage.join_build_ms", "ms", "q3_p50_ms, q12_p50_ms (large_mix)"},
      {"exec.stage.join_probe_ms", "ms", "q3_p50_ms, q12_p50_ms (large_mix)"},
      {"exec.stage.agg_ms", "ms", "q1_p50_ms (large_mix)"},
      {"exec.stage.exchange_send_ms", "ms",
       "q3_p50_ms, q12_p50_ms (large_mix)"},
      {"exec.stage.exchange_receive_ms", "ms",
       "q3_p50_ms, q12_p50_ms (large_mix)"},
      {"exec.unattributed_ms", "ms",
       "q3_p50_ms (large_mix), throughput_qps (short_corun)"},
      {"exec.unattributed_share", "fraction",
       "share of query wall outside every operator stage"},
      {"exec.exchange_wait_ms", "ms", "latency_tail_ms (large_mix)"},
      {"net.credit_wait_ms", "ms", "latency_tail_ms (large_mix)"},
      {"exec.rows_examined_per_row_out", "ratio", "per-kind p50 (large_mix)"},
      {"exec.runtime.queue_delay_p50_ms", "ms",
       "latency_tail_ms, throughput_qps (short_corun)"},
      {"exec.runtime.corun_share", "fraction",
       "latency_tail_ms, throughput_qps (short_corun)"},
      {"exec.runtime.deferred", "count",
       "latency_tail_ms, throughput_qps (short_corun)"},
      {"net.shipped_bytes_per_query", "B",
       "q3_p50_ms, joules_per_query (large_mix); latency (process_mix)"},
      {"net.process.fragment_ms", "ms", "per-kind p50 (process_mix)"},
      {"net.process.overhead_ms", "ms", "per-kind p50 (process_mix)"},
      {"net.process.tx_bytes_per_query", "B", "per-kind p50 (process_mix)"},
      {"energy.busy_j", "J", "joules_per_query (large_mix, short_corun)"},
      {"energy.idle_j", "J", "joules_per_query (large_mix, short_corun)"},
      {"energy.network_j", "J", "joules_per_query (large_mix)"},
      {"energy.finish_us", "us", "throughput_qps (short_corun)"},
      {"obs.trace_overhead_pct", "%", "traced vs untraced throughput"},
  };
  return kDefs;
}

namespace {

using Clock = std::chrono::steady_clock;
using Oracle = std::array<storage::TablePtr, kNumQueryKinds>;

constexpr std::uint64_t kDbgenSeed = 19920101;
constexpr char kGroup[] = "half";

// Every process_mix query opens about 11 TCP loopback connections, one
// per exchange edge, and each leaves a socket in TIME_WAIT for 60 s. Runs
// started while earlier runs' sockets still held more than ~20K of the
// 28K ephemeral ports slowed for seconds at a time, down to a sixth of
// their throughput. So process_mix starts timing only once fewer than
// kTimeWaitCeiling remain, leaving room for the ~10K a run opens itself,
// and waits at most kMaxDrainS; the count at the start is recorded.
constexpr int kTimeWaitCeiling = 12000;
constexpr double kMaxDrainS = 40.0;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

std::size_t Index(QueryKind kind) { return static_cast<std::size_t>(kind); }

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.substr(0, prefix.size()) == prefix;
}

cluster::ClusterConfig MakeFleet(const WorkloadSpec& spec) {
  const cluster::NodeClassRegistry registry =
      cluster::NodeClassRegistry::PaperDefault();
  cluster::NodeClassSpec beefy = *registry.Find("beefy").value();
  cluster::NodeClassSpec wimpy = *registry.Find("wimpy").value();
  beefy.engine_workers = spec.beefy_workers;
  wimpy.engine_workers = spec.wimpy_workers;
  return cluster::ClusterConfig::BeefyWimpy(beefy, 1, wimpy, 2);
}

/// Pipelines in flight when every client has a query running.
int PeakPipelines(const WorkloadSpec& spec) {
  int per_query = 0;
  for (const int w : {spec.beefy_workers, spec.wimpy_workers,
                      spec.wimpy_workers}) {
    per_query += std::clamp(
        static_cast<int>(std::lround(spec.worker_share * w)), 1, w);
  }
  return spec.clients * per_query;
}

/// Records bench-side spans around calls into the engine's layers, on the
/// recorder's runtime track. Without a recorder it only times the calls.
class SpanLog {
 public:
  explicit SpanLog(obs::TraceRecorder* rec = nullptr) : rec_(rec) {}

  /// Closes the span [begin, now) named `call` in `layer`; returns its
  /// length in seconds.
  double Close(const char* layer, const char* call, Clock::time_point begin,
               int query = -1) const {
    const Clock::time_point end = Clock::now();
    if (rec_ != nullptr) {
      const Clock::time_point epoch = rec_->epoch();
      obs::TraceSpan span;
      span.query = query;
      span.name = call;
      span.category = layer;
      span.begin_s = SecondsBetween(epoch, begin);
      span.end_s = SecondsBetween(epoch, end);
      rec_->AddSpan(std::move(span));
    }
    return SecondsBetween(begin, end);
  }

 private:
  obs::TraceRecorder* rec_;
};

/// Copies `from` into `into`, shifting every timestamp by `offset_s`
/// (the distance between the two recorders' epochs).
void MergeTrace(const obs::TraceRecorder& from, double offset_s,
                obs::TraceRecorder* into) {
  std::vector<obs::TraceSpan> spans = from.spans();
  for (obs::TraceSpan& s : spans) {
    s.begin_s += offset_s;
    s.end_s += offset_s;
  }
  into->AddSpans(std::move(spans));
  for (obs::TraceInstant i : from.instants()) {
    i.ts_s += offset_s;
    into->AddInstant(std::move(i));
  }
  for (obs::TraceCounter c : from.counters()) {
    c.ts_s += offset_s;
    into->AddCounter(std::move(c));
  }
}

/// Reference results: one single-node, one-worker executor over the same
/// generated data (tables shared, not copied).
StatusOr<Oracle> BuildOracle(double scale_factor) {
  eedc::tpch::DbgenOptions dbgen;
  dbgen.scale_factor = scale_factor;
  dbgen.seed = kDbgenSeed;
  const eedc::tpch::TpchDatabase db = eedc::tpch::GenerateDatabase(dbgen);
  exec::ClusterData data(1);
  for (const std::string& name : db.TableNames()) {
    EEDC_ASSIGN_OR_RETURN(storage::TablePtr table, db.ByName(name));
    data.LoadReplicated(name, std::move(table));
  }
  exec::Executor executor(&data);
  Oracle refs;
  for (int k = 0; k < kNumQueryKinds; ++k) {
    EEDC_ASSIGN_OR_RETURN(exec::PlanPtr plan,
                          workload::PlanForKind(static_cast<QueryKind>(k), db));
    EEDC_ASSIGN_OR_RETURN(exec::QueryResult result, executor.Execute(plan));
    refs[static_cast<std::size_t>(k)] =
        std::make_shared<const storage::Table>(std::move(result.table));
  }
  return refs;
}

/// The engine's layers assembled by hand, as EngineFleet::Init lays them
/// out, with each layer's call timed.
struct Layers {
  cluster::ClusterConfig fleet;  // placements point into this
  eedc::tpch::TpchDatabase db;
  std::unique_ptr<exec::ClusterData> data;
  std::array<cluster::EnginePlacement, kNumQueryKinds> placements;
  double generate_s = 0.0;
  double load_s = 0.0;
  double place_s = 0.0;

  std::vector<std::shared_ptr<const eedc::power::PowerModel>> models()
      const {
    std::vector<std::shared_ptr<const eedc::power::PowerModel>> out;
    for (const cluster::NodeClassSpec* cls : placements[0].node_classes) {
      out.push_back(cls->power_model);
    }
    return out;
  }
};

StatusOr<std::shared_ptr<const Layers>> BuildLayers(const WorkloadSpec& spec,
                                                    const SpanLog& log) {
  auto layers = std::make_shared<Layers>();
  layers->fleet = MakeFleet(spec);

  Clock::time_point t = Clock::now();
  eedc::tpch::DbgenOptions dbgen;
  dbgen.scale_factor = spec.scale_factor;
  dbgen.seed = kDbgenSeed;
  layers->db = eedc::tpch::GenerateDatabase(dbgen);
  layers->generate_s = log.Close("tpch", "tpch::GenerateDatabase", t);

  t = Clock::now();
  layers->data =
      std::make_unique<exec::ClusterData>(layers->fleet.total_nodes());
  EEDC_RETURN_IF_ERROR(layers->data->LoadHashPartitioned(
      "lineitem", *layers->db.lineitem, "l_orderkey"));
  EEDC_RETURN_IF_ERROR(layers->data->LoadHashPartitioned(
      "orders", *layers->db.orders, "o_custkey"));
  layers->data->LoadReplicated("supplier", layers->db.supplier);
  layers->data->LoadReplicated("nation", layers->db.nation);
  layers->load_s = log.Close("storage", "ClusterData::Load*", t);

  t = Clock::now();
  cluster::PlacementOptions options;
  options.replicated_tables = {"supplier", "nation"};
  const cluster::PlacementPolicy policy(options);
  for (int k = 0; k < kNumQueryKinds; ++k) {
    EEDC_ASSIGN_OR_RETURN(
        exec::PlanPtr plan,
        workload::PlanForKind(static_cast<QueryKind>(k), layers->db));
    EEDC_ASSIGN_OR_RETURN(layers->placements[static_cast<std::size_t>(k)],
                          policy.Place(std::move(plan), layers->fleet));
  }
  layers->place_s = log.Close("cluster", "PlacementPolicy::Place", t);
  return std::shared_ptr<const Layers>(std::move(layers));
}

/// One query as a client saw it, with whatever the entry call returned.
struct QueryOutcome {
  QueryKind kind = QueryKind::kQ1;
  /// Outside-timed wall: the entry call to its return.
  double wall_s = 0.0;
  /// Completion time, seconds since the loop started.
  double done_s = 0.0;
  storage::TablePtr table;
  std::size_t result_rows = 0;
  /// Non-OK when the runtime rejected the submit.
  Status rejected = Status::OK();
  /// Metered joules of this query; negative when the entry is unmetered.
  double joules = -1.0;
  std::optional<exec::ExecMetrics> metrics;
  /// Pipelines per node the query ran with.
  std::vector<int> workers;
  double queue_delay_s = 0.0;
  int query_id = -1;
  double fragment_s = 0.0;  // ProcessRun::wall
  double tx_bytes = 0.0;    // ProcessRun::tx_bytes
  energy::EnergySplit energy;
  double finish_us = 0.0;  // EnergyMeter::Finish
};

/// A workload's system under test, built by one timed set-up.
class Server {
 public:
  virtual ~Server() = default;
  /// Runs one query; safe from several client threads when the workload
  /// has more than one client.
  virtual StatusOr<QueryOutcome> Run(QueryKind kind) = 0;
  void set_log(const SpanLog* log) { log_ = log; }

 protected:
  const SpanLog& log() const {
    static const SpanLog kQuiet;
    return log_ != nullptr ? *log_ : kQuiet;
  }

 private:
  const SpanLog* log_ = nullptr;
};

/// large_mix and process_mix: EngineFleet's public entry points.
class FleetServer final : public Server {
 public:
  FleetServer(std::unique_ptr<workload::EngineFleet> fleet, bool process)
      : fleet_(std::move(fleet)), process_(process) {}

  StatusOr<QueryOutcome> Run(QueryKind kind) override {
    QueryOutcome q;
    q.kind = kind;
    const Clock::time_point t0 = Clock::now();
    if (process_) {
      EEDC_ASSIGN_OR_RETURN(workload::ProcessRun run,
                            fleet_->MeasureProcess(kind));
      q.wall_s = log().Close("net.process", "EngineFleet::MeasureProcess", t0);
      q.table = run.table;
      q.fragment_s = run.wall.seconds();
      q.tx_bytes = run.tx_bytes;
    } else {
      EEDC_ASSIGN_OR_RETURN(workload::EngineRun run, fleet_->RunOnce(kind));
      q.wall_s = log().Close("workload", "EngineFleet::RunOnce", t0);
      q.table = run.table;
      q.joules = run.joules.joules();
    }
    q.result_rows = q.table->num_rows();
    return q;
  }

 private:
  std::unique_ptr<workload::EngineFleet> fleet_;
  const bool process_;
};

/// short_corun: one ExecutorRuntime shared by every client; each query
/// runs in a group granted `share` of every node's width.
class RuntimeServer final : public Server {
 public:
  RuntimeServer(std::shared_ptr<const Layers> layers,
                obs::TraceRecorder* trace)
      : layers_(std::move(layers)),
        runtime_(layers_->data.get(),
                 layers_->placements[0].MakeExecutorOptions()),
        traced_(trace != nullptr) {
    if (traced_) runtime_.AttachTrace(trace);
  }

  Status Init(double share) {
    return runtime_.AddGroup(exec::ResourceGroup{kGroup, share, 0, 0.0});
  }

  StatusOr<QueryOutcome> Run(QueryKind kind) override {
    QueryOutcome q;
    q.kind = kind;
    exec::RuntimeQueryOptions options;
    options.group = kGroup;
    const Clock::time_point t0 = Clock::now();
    StatusOr<exec::ExecutorRuntime::TicketPtr> ticket = runtime_.Submit(
        layers_->placements[Index(kind)].plan_for_node, options);
    if (!ticket.ok()) {
      q.rejected = ticket.status();
      return q;
    }
    EEDC_ASSIGN_OR_RETURN(exec::QueryResult result, (*ticket)->Wait());
    q.wall_s = log().Close("exec.runtime", "ExecutorRuntime::Submit+Wait", t0,
                           (*ticket)->query_id());
    q.result_rows = result.table.num_rows();
    q.table = std::make_shared<const storage::Table>(std::move(result.table));
    // Kept only where the per-layer metrics read them, so an untraced
    // run's memory does not grow with its query count.
    if (traced_) q.metrics = std::move(result.metrics);
    q.workers = (*ticket)->granted_workers();
    q.queue_delay_s = (*ticket)->queue_delay().seconds();
    q.query_id = (*ticket)->query_id();
    return q;
  }

  const exec::ExecutorRuntime& runtime() const { return runtime_; }
  const Layers& layers() const { return *layers_; }

 private:
  std::shared_ptr<const Layers> layers_;
  exec::ExecutorRuntime runtime_;
  const bool traced_;
};

/// Traced large_mix: the calls RunOnce makes, made one by one so each is
/// timed and the executor records operator spans.
class TracedFleetServer final : public Server {
 public:
  TracedFleetServer(std::shared_ptr<const Layers> layers,
                    obs::TraceRecorder* trace)
      : layers_(std::move(layers)), trace_(trace) {
    const cluster::EnginePlacement& p0 = layers_->placements[0];
    std::vector<int> workers = p0.node_workers;
    for (int& w : workers) w = std::max(1, w);
    meter_ = std::make_unique<energy::EnergyMeter>(layers_->models(),
                                                   std::move(workers));
    std::vector<energy::NicModel> nics;
    for (const cluster::NodeClassSpec* cls : p0.node_classes) {
      nics.push_back(cls->nic_model());
    }
    meter_->SetNicModels(std::move(nics));
  }

  StatusOr<QueryOutcome> Run(QueryKind kind) override {
    const cluster::EnginePlacement& p = layers_->placements[Index(kind)];
    obs::TraceRecorder query_trace;
    exec::Executor::Options options = p.MakeExecutorOptions();
    options.activity_listener = meter_.get();
    options.transport = &transport_;
    options.trace = &query_trace;
    options.query_tag = next_tag_++;
    exec::Executor executor(layers_->data.get(), std::move(options));

    QueryOutcome q;
    q.kind = kind;
    q.query_id = next_tag_ - 1;
    meter_->Reset();
    const Clock::time_point t0 = Clock::now();
    StatusOr<exec::QueryResult> result =
        executor.ExecutePerNode(p.plan_for_node);
    q.wall_s = log().Close("exec", "Executor::ExecutePerNode", t0, q.query_id);
    EEDC_RETURN_IF_ERROR(result.status());
    const Clock::time_point t1 = Clock::now();
    const energy::QueryEnergyReport report = meter_->Finish();
    q.finish_us =
        log().Close("energy", "EnergyMeter::Finish", t1, q.query_id) * 1e6;
    MergeTrace(query_trace, SecondsBetween(trace_->epoch(), t0), trace_);

    q.result_rows = result->table.num_rows();
    q.table = std::make_shared<const storage::Table>(std::move(result->table));
    q.metrics = std::move(result->metrics);
    q.workers = p.node_workers;
    q.joules = report.total.joules();
    q.energy = energy::EnergySplit{report.busy, report.idle, report.network};
    return q;
  }

 private:
  std::shared_ptr<const Layers> layers_;
  obs::TraceRecorder* trace_;
  std::unique_ptr<energy::EnergyMeter> meter_;
  eedc::net::InProcessTransport transport_;
  int next_tag_ = 0;
};

struct LoopResult {
  std::vector<QueryOutcome> done;
  Clock::time_point start;
  double elapsed_s = 0.0;  // start to the last completion

  double qps() const {
    return elapsed_s > 0.0 ? static_cast<double>(done.size()) / elapsed_s
                           : 0.0;
  }
};

/// Closed loop: `clients` threads each issue the sequence's next query
/// once their previous one returned and was verified, until `seconds`
/// have passed and the current round of the mix is complete. Results are
/// checked against the oracle as they arrive and then dropped, so memory
/// does not grow with the run.
LoopResult ClosedLoop(Server& server, int clients, std::uint64_t seed,
                      double seconds, const Oracle& refs, Tally* tally) {
  LoopResult out;
  QuerySequence sequence(seed);
  std::mutex mu;
  std::int64_t issued = 0;
  out.start = Clock::now();
  Clock::time_point last = out.start;
  const Clock::time_point deadline =
      out.start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
  const auto client = [&] {
    for (;;) {
      QueryKind kind;
      {
        std::lock_guard<std::mutex> lock(mu);
        if (Clock::now() >= deadline && issued % kNumQueryKinds == 0) return;
        kind = sequence.Next();
        ++issued;
        ++tally->attempted;
      }
      StatusOr<QueryOutcome> r = server.Run(kind);
      const Clock::time_point now = Clock::now();
      std::string mismatch;
      if (r.ok() && r->rejected.ok()) {
        mismatch = Mismatch(kind, *r->table, *refs[Index(kind)]);
        r->table.reset();
        r->done_s = SecondsBetween(out.start, now);
      }
      std::lock_guard<std::mutex> lock(mu);
      last = std::max(last, now);
      if (!r.ok()) {
        tally->Fail(&tally->errors, r.status().ToString());
      } else if (!r->rejected.ok()) {
        tally->Fail(&tally->rejected, r->rejected.ToString());
      } else {
        if (!mismatch.empty()) tally->Fail(&tally->mismatches, mismatch);
        out.done.push_back(std::move(*r));
      }
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client);
  client();
  for (std::thread& t : threads) t.join();
  out.elapsed_s = SecondsBetween(out.start, last);
  return out;
}

/// One query of each kind, verified and counted, before timing.
void WarmUp(Server& server, const Oracle& refs, Tally* tally) {
  for (int k = 0; k < kNumQueryKinds; ++k) {
    const auto kind = static_cast<QueryKind>(k);
    ++tally->attempted;
    StatusOr<QueryOutcome> r = server.Run(kind);
    if (!r.ok()) {
      tally->Fail(&tally->errors, r.status().ToString());
    } else if (!r->rejected.ok()) {
      tally->Fail(&tally->rejected, r->rejected.ToString());
    } else {
      tally->Verify(kind, *r->table, *refs[Index(kind)]);
    }
  }
}

/// The runtime's tagged spans of `ids`, rebased so the timed window
/// starts at zero.
std::vector<exec::TaggedWorkerSpan> WindowSpans(
    const exec::ExecutorRuntime& runtime, const std::set<int>& ids,
    Clock::time_point window_start) {
  const double offset = SecondsBetween(runtime.epoch(), window_start);
  std::vector<exec::TaggedWorkerSpan> out;
  for (exec::TaggedWorkerSpan s : runtime.TaggedSpans()) {
    if (ids.count(s.query) == 0) continue;
    s.begin = eedc::Duration::Seconds(s.begin.seconds() - offset);
    s.end = eedc::Duration::Seconds(s.end.seconds() - offset);
    out.push_back(s);
  }
  return out;
}

/// Energy and co-run readings of the runtime's spans over timed windows;
/// readings of several windows add up.
struct CoRun {
  double joules = 0.0;
  double busy_j = 0.0;
  double idle_j = 0.0;
  double attribute_s = 0.0;  // the energy::AttributeConcurrent call
  double overlap_s = 0.0;    // time with more than one query in flight
  double window_s = 0.0;     // first span begin to last span end

  void Add(const CoRun& o) {
    joules += o.joules;
    busy_j += o.busy_j;
    idle_j += o.idle_j;
    attribute_s += o.attribute_s;
    overlap_s += o.overlap_s;
    window_s += o.window_s;
  }
  double corun_share() const {
    return window_s > 0.0 ? overlap_s / window_s : 0.0;
  }
};

CoRun AnalyzeCoRun(const RuntimeServer& server, const LoopResult& loop,
                   const SpanLog& log) {
  std::set<int> ids;
  for (const QueryOutcome& q : loop.done) ids.insert(q.query_id);
  const std::vector<exec::TaggedWorkerSpan> spans =
      WindowSpans(server.runtime(), ids, loop.start);
  const auto models = server.layers().models();
  const std::vector<int>& widths = server.runtime().node_workers();

  CoRun out;
  const Clock::time_point t0 = Clock::now();
  const energy::ConcurrentEnergyReport report =
      energy::AttributeConcurrent(spans, models, widths);
  out.attribute_s = log.Close("energy", "energy::AttributeConcurrent", t0);
  out.joules = report.total.joules();

  // Busy/idle split of the same window: each query's waits carved out of
  // its own spans, then every node's utilization curve integrated.
  std::map<int, std::vector<energy::WorkerSpan>> busy, waits;
  std::map<int, std::pair<double, double>> extent;  // query -> [begin, end]
  for (const exec::TaggedWorkerSpan& s : spans) {
    const energy::WorkerSpan w{s.node, s.worker, s.begin, s.end};
    (s.is_wait ? waits : busy)[s.query].push_back(w);
    if (s.is_wait) continue;
    auto [it, fresh] = extent.try_emplace(
        s.query, std::make_pair(s.begin.seconds(), s.end.seconds()));
    if (!fresh) {
      it->second.first = std::min(it->second.first, s.begin.seconds());
      it->second.second = std::max(it->second.second, s.end.seconds());
    }
  }
  std::vector<std::vector<energy::WorkerSpan>> per_node(widths.size());
  for (auto& [query, spans_of_query] : busy) {
    for (const energy::WorkerSpan& w :
         energy::SubtractWaits(spans_of_query, waits[query])) {
      per_node[static_cast<std::size_t>(w.node)].push_back(w);
    }
  }
  for (std::size_t n = 0; n < per_node.size(); ++n) {
    const energy::EnergySplit split = energy::IntegrateTrace(
        energy::BuildUtilizationTrace(per_node[n], widths[n], report.wall),
        *models[n]);
    out.busy_j += split.busy.joules();
    out.idle_j += split.idle.joules();
  }

  // Share of the window with more than one query in flight.
  std::vector<std::pair<double, int>> edges;
  for (const auto& [query, be] : extent) {
    edges.emplace_back(be.first, 1);
    edges.emplace_back(be.second, -1);
  }
  std::sort(edges.begin(), edges.end());
  int active = 0;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (active > 1) out.overlap_s += edges[i].first - edges[i - 1].first;
    active += edges[i].second;
  }
  if (!edges.empty()) {
    out.window_s = edges.back().first - edges.front().first;
  }
  return out;
}

std::vector<double> AllWalls(const LoopResult& loop) {
  std::vector<double> out;
  for (const QueryOutcome& q : loop.done) out.push_back(q.wall_s * 1e3);
  return out;
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    out += (i > 0 ? ", " : "") + Num(values[i]);
  }
  return out + "]";
}

template <typename F>
double MeanOf(const std::vector<QueryOutcome>& done, F&& f) {
  if (done.empty()) return 0.0;
  double sum = 0.0;
  for (const QueryOutcome& q : done) sum += f(q);
  return sum / static_cast<double>(done.size());
}

/// One of kChunks runs of consecutive completions, cut at round
/// boundaries of the mix so that each holds every kind about equally.
struct Chunk {
  double qps = 0.0;  // completions / (last completion - previous chunk's)
  std::array<std::vector<double>, kNumQueryKinds> walls_ms;
};

/// The timed loop cut into chunks. Throughput and per-kind medians are
/// taken per chunk and reported as the median over chunks, so a burst of
/// host contention covering fewer than half of them does not move them.
constexpr int kChunks = 5;
std::vector<Chunk> Chunks(const LoopResult& loop) {
  std::vector<const QueryOutcome*> order;
  for (const QueryOutcome& q : loop.done) order.push_back(&q);
  std::sort(order.begin(), order.end(),
            [](const QueryOutcome* a, const QueryOutcome* b) {
              return a->done_s < b->done_s;
            });
  const std::size_t rounds = order.size() / kNumQueryKinds;
  std::vector<Chunk> chunks;
  double begin = 0.0;
  std::size_t lo = 0;
  for (int c = 1; c <= kChunks; ++c) {
    const std::size_t hi = c == kChunks
                               ? order.size()
                               : kNumQueryKinds * (rounds * c / kChunks);
    if (hi <= lo) continue;
    Chunk chunk;
    const double end = order[hi - 1]->done_s;
    if (end > begin) chunk.qps = static_cast<double>(hi - lo) / (end - begin);
    for (std::size_t i = lo; i < hi; ++i) {
      chunk.walls_ms[Index(order[i]->kind)].push_back(order[i]->wall_s * 1e3);
    }
    chunks.push_back(std::move(chunk));
    begin = end;
    lo = hi;
  }
  return chunks;
}

/// What every result file and report header records about the run.
struct Provenance {
  const RunOptions* options = nullptr;
  std::string fleet;
  double peak_pipelines_per_nproc = 0.0;
  double spin_ms = 0.0;
  CpuTimes cpu_begin;
  double steal_share = 0.0;
  double drain_wait_s = 0.0;
  int time_wait_at_start = 0;

  /// Waits for TIME_WAIT sockets to drain on process_mix, then records
  /// the count the timed loop starts with.
  void BeforeLoop() {
    if (options->spec->entry == Entry::kProcess) {
      drain_wait_s = DrainTimeWait(kTimeWaitCeiling, kMaxDrainS);
    }
    time_wait_at_start = TcpTimeWait();
  }

  std::string Json() const {
    const WorkloadSpec& spec = *options->spec;
    return "{\"workload\": " + Quote(spec.name) +
           ", \"seed\": " + std::to_string(options->seed) +
           ", \"seconds\": " + Num(options->seconds) +
           ", \"trace\": " + (options->trace ? "true" : "false") +
           ", \"nproc\": " + std::to_string(HostThreads()) +
           ", \"build_type\": " + Quote(ENGINEBENCH_BUILD_TYPE) +
           ", \"compiler\": " + Quote(CompilerName()) +
           ", \"scale_factor\": " + Num(spec.scale_factor) +
           ", \"fleet\": " + Quote(fleet) + ", \"clients\": " +
           std::to_string(spec.clients) +
           ", \"peak_pipelines_per_nproc\": " +
           Num(peak_pipelines_per_nproc) + ", \"steal_share\": " +
           Num(steal_share) + ", \"host.spin_ms\": " + Num(spin_ms) +
           ", \"tcp_time_wait_at_start\": " +
           std::to_string(time_wait_at_start) + ", \"drain_wait_s\": " +
           Num(drain_wait_s) + "}";
  }
};

std::string ResultPath(const RunOptions& o, const char* stem,
                       const char* ext) {
  return o.out_dir + "/" + stem + "-" + o.spec->name + "-seed" +
         std::to_string(o.seed) + ext;
}

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream out(path);
  out << body;
  return static_cast<bool>(out);
}

/// Prints the report, writes the result file and prints the result line.
int Finish(const Provenance& prov, const Tally& tally, bool complete,
           const std::vector<Metric>& printed,
           const std::vector<Metric>& gated,
           const std::vector<std::string>& notes,
           const std::string& extra_json) {
  std::printf("enginebench provenance %s\n", prov.Json().c_str());
  for (const Metric& m : printed) {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const std::string& note : notes) std::printf("  %s\n", note.c_str());
  std::printf("  attempted=%lld failed=%lld (errors=%lld rejected=%lld "
              "mismatches=%lld)%s%s\n",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed()),
              static_cast<long long>(tally.errors),
              static_cast<long long>(tally.rejected),
              static_cast<long long>(tally.mismatches),
              tally.first_failure.empty() ? "" : " first: ",
              tally.first_failure.c_str());
  const bool correct = complete && tally.failed() == 0;
  const std::string path =
      ResultPath(*prov.options, prov.options->trace ? "layers" : "result",
                 ".json");
  const std::string body =
      "{\"provenance\": " + prov.Json() + ", \"correct\": " +
      (correct ? "true" : "false") + ", \"attempted\": " +
      std::to_string(tally.attempted) + ", \"failed\": " +
      std::to_string(tally.failed()) + ", \"failed_frac\": " +
      Num(tally.failed_frac()) + ", \"metrics\": " + MetricsJson(printed) +
      extra_json + "}\n";
  if (!WriteFile(path, body)) {
    std::fprintf(stderr, "enginebench: cannot write %s\n", path.c_str());
    return 1;
  }
  std::printf("  result file: %s\n", path.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<long long>(tally.attempted),
              static_cast<long long>(tally.failed()),
              MetricsJson(gated).c_str());
  std::fflush(stdout);
  return 0;
}

/// Per-kind result rows, which must repeat exactly between runs.
std::string PerKindJson(const LoopResult& loop) {
  std::array<std::int64_t, kNumQueryKinds> count{};
  std::array<std::set<std::size_t>, kNumQueryKinds> rows;
  for (const QueryOutcome& q : loop.done) {
    ++count[Index(q.kind)];
    rows[Index(q.kind)].insert(q.result_rows);
  }
  std::string out = ", \"per_kind\": {";
  for (int k = 0; k < kNumQueryKinds; ++k) {
    if (k > 0) out += ", ";
    out += Quote(workload::QueryKindName(static_cast<QueryKind>(k))) +
           ": {\"count\": " + std::to_string(count[k]) +
           ", \"result_rows\": [";
    bool first = true;
    for (const std::size_t r : rows[k]) {
      out += (first ? "" : ", ") + std::to_string(r);
      first = false;
    }
    out += "]}";
  }
  return out + "}";
}

/// A fleet of the workload's shape through EngineFleet::Create.
StatusOr<std::unique_ptr<workload::EngineFleet>> CreateFleet(
    const WorkloadSpec& spec) {
  workload::EngineFleetOptions options;
  options.scale_factor = spec.scale_factor;
  options.seed = kDbgenSeed;
  options.process_fleet = spec.entry == Entry::kProcess;
  return workload::EngineFleet::Create(MakeFleet(spec), options);
}

/// The untraced system under test, as a user of its entry point sets it
/// up.
StatusOr<std::unique_ptr<Server>> CreateServer(const WorkloadSpec& spec) {
  if (spec.entry == Entry::kRuntime) {
    EEDC_ASSIGN_OR_RETURN(std::shared_ptr<const Layers> layers,
                          BuildLayers(spec, SpanLog()));
    auto server = std::make_unique<RuntimeServer>(std::move(layers), nullptr);
    EEDC_RETURN_IF_ERROR(server->Init(spec.worker_share));
    return std::unique_ptr<Server>(std::move(server));
  }
  EEDC_ASSIGN_OR_RETURN(std::unique_ptr<workload::EngineFleet> fleet,
                        CreateFleet(spec));
  return std::unique_ptr<Server>(std::make_unique<FleetServer>(
      std::move(fleet), spec.entry == Entry::kProcess));
}

int Fail(const Status& status) {
  std::fprintf(stderr, "enginebench: %s\n", status.ToString().c_str());
  return 1;
}

int RunEndToEnd(const RunOptions& o, const Oracle& refs, Provenance* prov) {
  const WorkloadSpec& spec = *o.spec;
  Tally tally;
  std::vector<double> setups;
  std::unique_ptr<Server> server;
  for (int i = 0; i < spec.setups; ++i) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<Server>> created = CreateServer(spec);
    setups.push_back(SecondsBetween(t0, Clock::now()));
    if (!created.ok()) return Fail(created.status());
    server = std::move(*created);
  }
  WarmUp(*server, refs, &tally);
  prov->BeforeLoop();
  LoopResult loop = ClosedLoop(*server, spec.clients, o.seed, o.seconds,
                               refs, &tally);

  double joules = -1.0;
  if (spec.entry == Entry::kRuntime) {
    const CoRun corun =
        AnalyzeCoRun(static_cast<const RuntimeServer&>(*server), loop,
                     SpanLog());
    if (!loop.done.empty()) joules = corun.joules / loop.done.size();
  } else if (spec.entry == Entry::kFleetRunOnce) {
    joules = MeanOf(loop.done, [](const QueryOutcome& q) { return q.joules; });
  }
  server.reset();
  prov->steal_share = StealShare(prov->cpu_begin, ReadCpuTimes());

  const Tail tail = TailLatency(AllWalls(loop), spec.tail_percentile);
  const std::vector<Chunk> chunks = Chunks(loop);
  std::vector<double> chunk_qps;
  for (const Chunk& c : chunks) chunk_qps.push_back(c.qps);
  std::map<std::string, double> values = {
      {"setup_s", Median(setups)},
      {"throughput_qps", Median(chunk_qps)},
      {"latency_tail_ms", tail.value},
      {"peak_rss_mb", PeakRssMb()},
      {"failed_frac", tally.failed_frac()},
  };
  bool complete = !loop.done.empty();
  for (int k = 0; k < kNumQueryKinds; ++k) {
    std::vector<double> medians;
    for (const Chunk& c : chunks) {
      if (!c.walls_ms[k].empty()) medians.push_back(Median(c.walls_ms[k]));
    }
    complete = complete && !medians.empty();
    std::string name = workload::QueryKindName(static_cast<QueryKind>(k));
    name[0] = 'q';
    values[name + "_p50_ms"] = Median(medians);
  }
  std::vector<std::string> notes = {
      "latency_tail_ms is p" + std::to_string(tail.percentile) + " with " +
      std::to_string(tail.beyond) + " of " +
      std::to_string(loop.done.size()) + " samples beyond it"};
  if (joules >= 0.0) {
    values["joules_per_query"] = joules;
  } else {
    notes.push_back(
        "joules_per_query absent: node processes are not energy-metered "
        "(ProcessRun carries no joules)");
  }
  std::vector<Metric> printed, gated;
  for (std::size_t i = 0; i < EndToEndMetrics().size(); ++i) {
    const MetricDef& def = EndToEndMetrics()[i];
    const auto it = values.find(def.name);
    if (it == values.end()) continue;
    printed.push_back({def.name, it->second, def.unit});
    if (i < kGatedEndToEnd) gated.push_back(printed.back());
  }

  const std::vector<double> walls = AllWalls(loop);
  std::string extra = ", \"tail\": {\"percentile\": " +
                      std::to_string(tail.percentile) + ", \"beyond\": " +
                      std::to_string(tail.beyond) + ", \"samples\": " +
                      std::to_string(loop.done.size()) + "}" +
                      ", \"setup_samples_s\": " + JsonArray(setups) +
                      ", \"chunk_qps\": " + JsonArray(chunk_qps) +
                      ", \"latency_ms\": {";
  for (const int p : {50, 90, 95, 99}) {
    extra += (p == 50 ? "\"p" : ", \"p") + std::to_string(p) + "\": " +
             Num(walls.empty() ? 0.0 : eedc::Percentile(walls, p / 100.0));
  }
  extra += "}" + PerKindJson(loop);
  return Finish(*prov, tally, complete, printed, gated, notes, extra);
}

/// A node process that only says hello and waits to be shut down: what
/// net::ProcessFleet::Spawn costs without any engine work behind it.
void HelloThenWait(int node, int control_fd) {
  eedc::net::ControlMessage hello;
  hello.type = eedc::net::ControlType::kHello;
  hello.node = node;
  if (!eedc::net::SendControl(control_fd, hello).ok()) _exit(1);
  for (;;) {
    const StatusOr<eedc::net::ControlMessage> msg = eedc::net::ReceiveControl(
        control_fd, eedc::Duration::Infinite());
    if (msg.ok() || !msg.status().IsDeadlineExceeded()) _exit(0);
  }
}

/// Readings of the traced run that are not per query.
struct TracedReadings {
  double generate_s = 0.0;
  double load_s = 0.0;
  double place_s = 0.0;
  double create_s = 0.0;
  double spawn_s = 0.0;
  double loaded_mb = 0.0;
  double untraced_qps = 0.0;
  double traced_qps = 0.0;
  std::optional<CoRun> corun;
  double deferred = 0.0;
};

struct LayerRow {
  Metric metric;
  std::string absent;  // why the layer is not measured on this workload
  double share = -1.0;  // of mean query wall (or of set-up); < 0 = n/a
};

std::vector<LayerRow> LayerRows(const WorkloadSpec& spec,
                                const TracedReadings& r,
                                const LoopResult& loop) {
  const std::vector<QueryOutcome>& done = loop.done;
  const bool process = spec.entry == Entry::kProcess;
  const bool runtime = spec.entry == Entry::kRuntime;
  const bool profiled = !done.empty() && done.front().metrics.has_value();
  const double wall_ms =
      MeanOf(done, [](const QueryOutcome& q) { return q.wall_s * 1e3; });
  const double setup_s =
      r.generate_s + r.load_s + r.place_s + r.create_s + r.spawn_s;

  std::map<std::string, double> v;
  std::map<std::string, std::string> absent;
  v["tpch.generate_s"] = r.generate_s;
  v["storage.load_s"] = r.load_s;
  v["cluster.place_s"] = r.place_s;
  v["workload.create_s"] = r.create_s;
  v["net.process.spawn_s"] = r.spawn_s;
  v["storage.loaded_mb"] = r.loaded_mb;

  const char* kNoProfile =
      "node processes return no ExecMetrics profile to the coordinator";
  const auto node_sum = [](const QueryOutcome& q, auto field) {
    double s = 0.0;
    for (const exec::NodeMetrics& n : q.metrics->nodes) s += field(n);
    return s;
  };
  if (profiled) {
    v["exec.busy_ms_per_query"] = MeanOf(done, [](const QueryOutcome& q) {
      return q.metrics->TotalBusy().seconds() * 1e3;
    });
    for (int s = 0; s < eedc::obs::kNumOpStages; ++s) {
      const auto stage = static_cast<eedc::obs::OpStage>(s);
      v[std::string("exec.stage.") + eedc::obs::OpStageName(stage) + "_ms"] =
          MeanOf(done, [&](const QueryOutcome& q) {
            return node_sum(q, [&](const exec::NodeMetrics& n) {
                     return n.op.of(stage).seconds;
                   }) * 1e3;
          });
    }
    // Outside wall minus the node whose stages cover the most of it
    // (stage seconds sum over a node's pipelines, so divide by them).
    const double unattributed = MeanOf(done, [](const QueryOutcome& q) {
      double covered = 0.0;
      for (std::size_t n = 0; n < q.metrics->nodes.size(); ++n) {
        const int w = n < q.workers.size() ? std::max(1, q.workers[n]) : 1;
        covered = std::max(covered,
                           q.metrics->nodes[n].op.total_seconds() / w);
      }
      return (q.wall_s - q.queue_delay_s - covered) * 1e3;
    });
    v["exec.unattributed_ms"] = unattributed;
    v["exec.unattributed_share"] =
        wall_ms > 0.0 ? unattributed / wall_ms : 0.0;
    v["exec.exchange_wait_ms"] = MeanOf(done, [&](const QueryOutcome& q) {
      return node_sum(q, [](const exec::NodeMetrics& n) {
               return n.exchange_wait.seconds();
             }) * 1e3;
    });
    v["net.credit_wait_ms"] = MeanOf(done, [&](const QueryOutcome& q) {
      return node_sum(q, [](const exec::NodeMetrics& n) {
               return n.credit_wait.seconds();
             }) * 1e3;
    });
    double scanned = 0.0, rows_out = 0.0, hash_mb = 0.0;
    for (const QueryOutcome& q : done) {
      scanned += node_sum(q, [](const exec::NodeMetrics& n) {
        return n.scan_rows;
      });
      rows_out += static_cast<double>(q.result_rows);
      hash_mb = std::max(hash_mb, node_sum(q, [](const exec::NodeMetrics& n) {
                                    return n.hash_table_bytes;
                                  }) / 1e6);
    }
    v["exec.rows_examined_per_row_out"] =
        rows_out > 0.0 ? scanned / rows_out : 0.0;
    v["exec.hash_table_mb"] = hash_mb;
    v["net.shipped_bytes_per_query"] = MeanOf(done, [](const QueryOutcome& q) {
      return q.metrics->TotalRemoteBytes();
    });
    if (runtime) {
      absent["net.credit_wait_ms"] =
          "ExecutorRuntime runs the legacy channel fabric, which has no "
          "credit windows";
    }
  } else {
    for (const MetricDef& d : LayerMetrics()) {
      if (StartsWith(d.name, "exec.") && !StartsWith(d.name, "exec.runtime")) {
        absent[d.name] = kNoProfile;
      }
    }
    absent["net.credit_wait_ms"] = kNoProfile;
  }

  if (runtime && r.corun.has_value()) {
    std::vector<double> delays;
    for (const QueryOutcome& q : done) delays.push_back(q.queue_delay_s * 1e3);
    v["exec.runtime.queue_delay_p50_ms"] = Median(delays);
    v["exec.runtime.corun_share"] = r.corun->corun_share();
    v["exec.runtime.deferred"] = r.deferred;
  } else {
    for (const char* m : {"exec.runtime.queue_delay_p50_ms",
                          "exec.runtime.corun_share", "exec.runtime.deferred"}) {
      absent[m] = "one client calls the fleet serially; no ExecutorRuntime";
    }
  }

  if (process) {
    v["net.process.fragment_ms"] =
        MeanOf(done, [](const QueryOutcome& q) { return q.fragment_s * 1e3; });
    v["net.process.overhead_ms"] = MeanOf(done, [](const QueryOutcome& q) {
      return (q.wall_s - q.fragment_s) * 1e3;
    });
    v["net.process.tx_bytes_per_query"] =
        MeanOf(done, [](const QueryOutcome& q) { return q.tx_bytes; });
    v["net.shipped_bytes_per_query"] = v["net.process.tx_bytes_per_query"];
  } else {
    for (const char* m :
         {"net.process.spawn_s", "net.process.fragment_ms",
          "net.process.overhead_ms", "net.process.tx_bytes_per_query"}) {
      absent[m] = "no node processes on this workload";
    }
  }

  const double n = static_cast<double>(std::max<std::size_t>(1, done.size()));
  if (process) {
    for (const char* m : {"energy.busy_j", "energy.idle_j", "energy.network_j",
                          "energy.finish_us"}) {
      absent[m] = "ProcessRun is not energy-metered yet";
    }
  } else if (runtime && r.corun.has_value()) {
    v["energy.busy_j"] = r.corun->busy_j / n;
    v["energy.idle_j"] = r.corun->idle_j / n;
    v["energy.finish_us"] = r.corun->attribute_s * 1e6 / n;
    absent["energy.network_j"] =
        "the runtime's legacy channel fabric reports no NIC bytes";
  } else {
    v["energy.busy_j"] = MeanOf(
        done, [](const QueryOutcome& q) { return q.energy.busy.joules(); });
    v["energy.idle_j"] = MeanOf(
        done, [](const QueryOutcome& q) { return q.energy.idle.joules(); });
    v["energy.network_j"] = MeanOf(
        done, [](const QueryOutcome& q) { return q.energy.network.joules(); });
    v["energy.finish_us"] =
        MeanOf(done, [](const QueryOutcome& q) { return q.finish_us; });
  }
  v["obs.trace_overhead_pct"] =
      r.untraced_qps > 0.0 ? 100.0 * (1.0 - r.traced_qps / r.untraced_qps)
                           : 0.0;

  std::vector<LayerRow> rows;
  for (const MetricDef& d : LayerMetrics()) {
    LayerRow row;
    row.metric = Metric{d.name, v[d.name], d.unit};
    const auto a = absent.find(d.name);
    if (a != absent.end()) row.absent = a->second;
    if (d.unit == "ms" && wall_ms > 0.0) row.share = row.metric.value / wall_ms;
    if (d.unit == "s" && setup_s > 0.0) row.share = row.metric.value / setup_s;
    rows.push_back(std::move(row));
  }
  return rows;
}

int RunTraced(const RunOptions& o, const Oracle& refs, Provenance* prov) {
  const WorkloadSpec& spec = *o.spec;
  obs::TraceRecorder trace;
  const SpanLog log(&trace);
  Tally tally;
  TracedReadings r;

  // Set-up, one layer call at a time.
  StatusOr<std::shared_ptr<const Layers>> built = BuildLayers(spec, log);
  if (!built.ok()) return Fail(built.status());
  const std::shared_ptr<const Layers> layers = std::move(*built);
  r.generate_s = layers->generate_s;
  r.load_s = layers->load_s;
  r.place_s = layers->place_s;
  for (int n = 0; n < layers->data->num_nodes(); ++n) {
    r.loaded_mb += layers->data->store(n).ApproxBytes() / 1e6;
  }
  if (spec.entry == Entry::kProcess) {
    // Forked while this process is single-threaded and holds a database of
    // the workload's size, as EngineFleet::Create forks its nodes.
    const Clock::time_point t0 = Clock::now();
    auto spawned = eedc::net::ProcessFleet::Spawn(
        layers->data->num_nodes(), HelloThenWait);
    r.spawn_s = log.Close("net.process", "ProcessFleet::Spawn", t0);
    if (!spawned.ok()) return Fail(spawned.status());
    (*spawned)->Shutdown();
  }

  // A: the public entry point, untraced. B: the same layers, each call
  // timed from outside and the engine's own tracing on.
  std::unique_ptr<Server> untraced;
  if (spec.entry == Entry::kRuntime) {
    // short_corun's entry point is created by constructing the runtime.
    const Clock::time_point t0 = Clock::now();
    auto rs = std::make_unique<RuntimeServer>(layers, nullptr);
    const Status init = rs->Init(spec.worker_share);
    r.create_s = log.Close("exec.runtime", "ExecutorRuntime()", t0);
    if (!init.ok()) return Fail(init);
    untraced = std::move(rs);
  } else {
    const Clock::time_point t0 = Clock::now();
    StatusOr<std::unique_ptr<workload::EngineFleet>> fleet = CreateFleet(spec);
    r.create_s = log.Close("workload", "EngineFleet::Create", t0);
    if (!fleet.ok()) return Fail(fleet.status());
    untraced = std::make_unique<FleetServer>(std::move(*fleet),
                                             spec.entry == Entry::kProcess);
  }
  obs::TraceRecorder runtime_trace;
  const RuntimeServer* runtime_server = nullptr;
  std::unique_ptr<Server> traced_owner;
  if (spec.entry == Entry::kFleetRunOnce) {
    traced_owner = std::make_unique<TracedFleetServer>(layers, &trace);
  } else if (spec.entry == Entry::kRuntime) {
    auto rs = std::make_unique<RuntimeServer>(layers, &runtime_trace);
    if (Status s = rs->Init(spec.worker_share); !s.ok()) return Fail(s);
    runtime_server = rs.get();
    traced_owner = std::move(rs);
  }
  // process_mix has no engine-side tracing to switch on: B is A with the
  // outside spans recorded.
  Server& traced = traced_owner != nullptr ? *traced_owner : *untraced;
  WarmUp(*untraced, refs, &tally);
  traced.set_log(&log);
  WarmUp(traced, refs, &tally);
  prov->BeforeLoop();

  // Short A B B A blocks, repeated, so drift of the host over the run
  // cancels out of the traced-versus-untraced comparison.
  constexpr int kBlocks = 12;
  LoopResult traced_loop;
  double untraced_s = 0.0, traced_s = 0.0;
  std::size_t untraced_done = 0;
  CoRun corun;
  for (int block = 0; block < kBlocks; ++block) {
    const bool is_traced = block % 4 == 1 || block % 4 == 2;
    Server& server = is_traced ? traced : *untraced;
    server.set_log(is_traced ? &log : nullptr);
    LoopResult loop =
        ClosedLoop(server, spec.clients,
                   o.seed + (static_cast<std::uint64_t>(block) << 32),
                   o.seconds / kBlocks, refs, &tally);
    if (!is_traced) {
      untraced_s += loop.elapsed_s;
      untraced_done += loop.done.size();
      continue;
    }
    traced_s += loop.elapsed_s;
    if (runtime_server != nullptr) {
      corun.Add(AnalyzeCoRun(*runtime_server, loop, log));
    }
    for (QueryOutcome& q : loop.done) traced_loop.done.push_back(std::move(q));
  }
  traced_loop.elapsed_s = traced_s;
  r.untraced_qps = untraced_s > 0.0 ? untraced_done / untraced_s : 0.0;
  r.traced_qps = traced_loop.qps();
  if (runtime_server != nullptr) {
    r.corun = corun;
    r.deferred = runtime_server->runtime().metrics().counter(
        "queries_deferred");
    MergeTrace(runtime_trace,
               SecondsBetween(trace.epoch(), runtime_server->runtime().epoch()),
               &trace);
  }
  traced_owner.reset();
  untraced.reset();
  prov->steal_share = StealShare(prov->cpu_begin, ReadCpuTimes());

  const std::vector<LayerRow> rows = LayerRows(spec, r, traced_loop);
  const std::string trace_path = ResultPath(o, "trace", ".json");
  if (Status s = obs::WriteChromeTrace(trace, trace_path); !s.ok()) {
    return Fail(s);
  }
  std::string table =
      "workload\tmetric\tvalue\tunit\ttargets\tshare_of_wall\tnote\n";
  std::vector<Metric> metrics;
  std::string absent_json = ", \"absent\": {";
  bool first_absent = true;
  for (const LayerRow& row : rows) {
    metrics.push_back(row.metric);
    const MetricDef& def = *std::find_if(
        LayerMetrics().begin(), LayerMetrics().end(),
        [&](const MetricDef& d) { return d.name == row.metric.name; });
    table += spec.name + "\t" + row.metric.name + "\t" +
             Num(row.metric.value) + "\t" + row.metric.unit + "\t" +
             def.target + "\t" +
             (row.share >= 0.0 && row.absent.empty() ? Num(row.share) : "-") +
             "\t" + (row.absent.empty() ? "" : "absent: " + row.absent) + "\n";
    if (!row.absent.empty()) {
      absent_json += (first_absent ? "" : ", ") + Quote(row.metric.name) +
                     ": " + Quote(row.absent);
      first_absent = false;
    }
  }
  absent_json += "}";
  const std::string table_path = ResultPath(o, "layers", ".tsv");
  if (!WriteFile(table_path, table)) {
    return Fail(Status::Internal("cannot write " + table_path));
  }
  const std::vector<std::string> notes = {
      "throughput untraced " + Num(r.untraced_qps) + " qps, traced " +
          Num(r.traced_qps) + " qps",
      "per-layer table: " + table_path, "chrome trace: " + trace_path};
  const bool complete = untraced_done > 0 && !traced_loop.done.empty();
  return Finish(*prov, tally, complete, metrics, metrics, notes,
                absent_json + PerKindJson(traced_loop));
}

}  // namespace

int RunWorkload(const RunOptions& o) {
  const WorkloadSpec& spec = *o.spec;
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  if (ec) return Fail(Status::Internal("cannot create " + o.out_dir));

  Provenance prov;
  prov.options = &o;
  prov.fleet = MakeFleet(spec).Label() + "(beefy:" +
               std::to_string(spec.beefy_workers) +
               ",wimpy:" + std::to_string(spec.wimpy_workers) + ")";
  prov.peak_pipelines_per_nproc =
      static_cast<double>(PeakPipelines(spec)) / HostThreads();
  prov.spin_ms = SpinMs();
  prov.cpu_begin = ReadCpuTimes();

  // The oracle is computed before any timed set-up and outside the loop.
  StatusOr<Oracle> refs = BuildOracle(spec.scale_factor);
  if (!refs.ok()) return Fail(refs.status());
  return o.trace ? RunTraced(o, *refs, &prov) : RunEndToEnd(o, *refs, &prov);
}

}  // namespace enginebench
