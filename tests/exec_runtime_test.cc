#include "exec/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <limits>
#include <optional>
#include <set>
#include <vector>

#include "exec/reference.h"
#include "tpch/dbgen.h"
#include "tpch/selectivity.h"
#include "workload/profiles.h"

namespace eedc::exec {
namespace {

using storage::Table;
using tpch::DbgenOptions;
using tpch::TpchDatabase;

DbgenOptions TestOpts() {
  DbgenOptions opts;
  opts.scale_factor = 0.002;
  opts.seed = 42;
  return opts;
}

/// A multi-query test bench: one cluster, two query "kinds" (a shuffled
/// join and a filtered scan) with serial references computed once by a
/// plain single-worker Executor on the same data.
class RuntimeBench {
 public:
  explicit RuntimeBench(int nodes = 3) : db_(tpch::GenerateDatabase(TestOpts())), data_(nodes) {
    EXPECT_TRUE(
        data_.LoadHashPartitioned("lineitem", *db_.lineitem, "l_shipdate")
            .ok());
    EXPECT_TRUE(
        data_.LoadHashPartitioned("orders", *db_.orders, "o_custkey").ok());
    const std::int64_t ck =
        tpch::ThresholdForSelectivity(*db_.orders, "o_custkey", 0.3)
            .value();
    const std::int64_t sd =
        tpch::ThresholdForSelectivity(*db_.lineitem, "l_shipdate", 0.4)
            .value();
    join_plan_ = HashJoinPlan(
        ShufflePlan(FilterPlan(ScanPlan("orders"),
                               Lt(Col("o_custkey"), I64(ck))),
                    "o_orderkey"),
        ShufflePlan(FilterPlan(ScanPlan("lineitem"),
                               Lt(Col("l_shipdate"), I64(sd))),
                    "l_orderkey"),
        "o_orderkey", "l_orderkey");
    scan_plan_ =
        FilterPlan(ScanPlan("lineitem"), Lt(Col("l_shipdate"), I64(sd)));

    Executor serial(&data_);
    auto join_ref = serial.Execute(join_plan_);
    EXPECT_TRUE(join_ref.ok()) << join_ref.status();
    join_ref_.emplace(std::move(join_ref)->table);
    auto scan_ref = serial.Execute(scan_plan_);
    EXPECT_TRUE(scan_ref.ok()) << scan_ref.status();
    scan_ref_.emplace(std::move(scan_ref)->table);
  }

  Executor::Options BaseOptions(int workers = 4) const {
    Executor::Options options;
    options.workers_per_node = workers;
    options.morsel_rows = 64;  // fine interleaving under contention
    return options;
  }

  const ClusterData* data() { return &data_; }
  PlanPtr join_plan() const { return join_plan_; }
  PlanPtr scan_plan() const { return scan_plan_; }
  const Table& join_ref() const { return *join_ref_; }
  const Table& scan_ref() const { return *scan_ref_; }

 private:
  TpchDatabase db_;
  ClusterData data_;
  PlanPtr join_plan_;
  PlanPtr scan_plan_;
  std::optional<Table> join_ref_;
  std::optional<Table> scan_ref_;
};

TEST(ExecutorRuntimeTest, SingleQueryMatchesPlainExecutor) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
  auto ticket = runtime.Submit(bench.join_plan(), {});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  auto result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();
  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(result->table, bench.join_ref(), 1e-9,
                                   &diff))
      << diff;
  EXPECT_GE((*ticket)->queue_delay().seconds(), 0.0);
  // An immediately admitted query never queues for long.
  EXPECT_LT((*ticket)->queue_delay().seconds(), 1.0);
}

TEST(ExecutorRuntimeTest, WaitConsumesTheResultOnce) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
  auto ticket = runtime.Submit(bench.scan_plan(), {});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  ASSERT_TRUE((*ticket)->Wait().ok());
  EXPECT_TRUE((*ticket)->Wait().status().IsFailedPrecondition());
}

TEST(ExecutorRuntimeTest, ConcurrentMixedStreamsMatchSerialReferences) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
  ASSERT_TRUE(runtime.AddGroup({"join", 0.5, 0, 0.0}).ok());
  ASSERT_TRUE(runtime.AddGroup({"scan", 0.5, 0, 0.0}).ok());

  constexpr int kStreams = 3;
  std::vector<ExecutorRuntime::TicketPtr> joins;
  std::vector<ExecutorRuntime::TicketPtr> scans;
  for (int s = 0; s < kStreams; ++s) {
    auto j = runtime.Submit(bench.join_plan(), {"join", 0.0, nullptr});
    ASSERT_TRUE(j.ok()) << j.status();
    joins.push_back(*j);
    auto q = runtime.Submit(bench.scan_plan(), {"scan", 0.0, nullptr});
    ASSERT_TRUE(q.ok()) << q.status();
    scans.push_back(*q);
  }

  std::set<int> ids;
  for (int s = 0; s < kStreams; ++s) {
    auto join_result = joins[static_cast<std::size_t>(s)]->Wait();
    ASSERT_TRUE(join_result.ok()) << join_result.status();
    std::string diff;
    EXPECT_TRUE(TablesEqualUnordered(join_result->table, bench.join_ref(),
                                     1e-9, &diff))
        << "join stream " << s << ": " << diff;
    auto scan_result = scans[static_cast<std::size_t>(s)]->Wait();
    ASSERT_TRUE(scan_result.ok()) << scan_result.status();
    EXPECT_TRUE(TablesEqualUnordered(scan_result->table, bench.scan_ref(),
                                     1e-9, &diff))
        << "scan stream " << s << ": " << diff;
    ids.insert(joins[static_cast<std::size_t>(s)]->query_id());
    ids.insert(scans[static_cast<std::size_t>(s)]->query_id());
  }
  EXPECT_EQ(ids.size(), 2u * kStreams);  // runtime-unique tags

  // Every span on the shared timeline belongs to a submitted query and
  // is well-formed.
  const std::vector<TaggedWorkerSpan> spans = runtime.TaggedSpans();
  EXPECT_FALSE(spans.empty());
  std::set<int> tagged;
  for (const TaggedWorkerSpan& s : spans) {
    EXPECT_TRUE(ids.count(s.query)) << "unknown query tag " << s.query;
    EXPECT_GE(s.end.seconds(), s.begin.seconds());
    tagged.insert(s.query);
  }
  EXPECT_EQ(tagged.size(), ids.size());  // every query left spans
}

TEST(ExecutorRuntimeTest, WorkerSharesAreClampedPerNode) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions(/*workers=*/4));
  ASSERT_TRUE(runtime.AddGroup({"half", 0.5, 0, 0.0}).ok());
  ASSERT_TRUE(runtime.AddGroup({"sliver", 0.01, 0, 0.0}).ok());

  auto half = runtime.Submit(bench.scan_plan(), {"half", 0.0, nullptr});
  ASSERT_TRUE(half.ok()) << half.status();
  EXPECT_EQ((*half)->granted_workers(), (std::vector<int>{2, 2, 2}));
  auto sliver = runtime.Submit(bench.scan_plan(), {"sliver", 0.0, nullptr});
  ASSERT_TRUE(sliver.ok()) << sliver.status();
  // A tiny share still grants at least one worker per node.
  EXPECT_EQ((*sliver)->granted_workers(), (std::vector<int>{1, 1, 1}));
  EXPECT_TRUE((*half)->Wait().ok());
  EXPECT_TRUE((*sliver)->Wait().ok());
}

TEST(ExecutorRuntimeTest, GroupValidation) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
  EXPECT_TRUE(runtime.AddGroup({"batch", 0.5, 0, 0.0}).ok());
  EXPECT_EQ(runtime.AddGroup({"batch", 0.5, 0, 0.0}).code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(runtime.AddGroup({"", 1.0, 0, 0.0}).IsInvalidArgument());
  EXPECT_TRUE(runtime.AddGroup({"zero", 0.0, 0, 0.0}).IsInvalidArgument());
  EXPECT_TRUE(
      runtime.AddGroup({"inf", std::numeric_limits<double>::infinity(), 0,
                        0.0})
          .IsInvalidArgument());
  EXPECT_TRUE(runtime.Submit(bench.scan_plan(), {"nope", 0.0, nullptr})
                  .status()
                  .IsNotFound());
}

TEST(ExecutorRuntimeTest, OverBudgetEstimateIsRejectedAtSubmit) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
  ASSERT_TRUE(runtime.AddGroup({"tight", 1.0, 0, 1000.0}).ok());
  auto ticket =
      runtime.Submit(bench.scan_plan(), {"tight", 2000.0, nullptr});
  EXPECT_EQ(ticket.status().code(), StatusCode::kResourceExhausted);
}

TEST(ExecutorRuntimeTest, MemoryBudgetDefersUntilInFlightBytesRelease) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
  ASSERT_TRUE(runtime.AddGroup({"tight", 1.0, 0, 1000.0}).ok());
  // Two queries that each pin 800 of the 1000-byte budget can only run
  // one at a time; both must still complete (admission defers, never
  // starves).
  auto first = runtime.Submit(bench.join_plan(), {"tight", 800.0, nullptr});
  ASSERT_TRUE(first.ok()) << first.status();
  auto second =
      runtime.Submit(bench.join_plan(), {"tight", 800.0, nullptr});
  ASSERT_TRUE(second.ok()) << second.status();

  auto first_result = (*first)->Wait();
  ASSERT_TRUE(first_result.ok()) << first_result.status();
  auto second_result = (*second)->Wait();
  ASSERT_TRUE(second_result.ok()) << second_result.status();
  std::string diff;
  EXPECT_TRUE(TablesEqualUnordered(second_result->table, bench.join_ref(),
                                   1e-9, &diff))
      << diff;
}

/// Earliest span begin of one query on the shared timeline.
Duration FirstSpanBegin(const std::vector<TaggedWorkerSpan>& spans,
                        int query) {
  Duration first = Duration::Infinite();
  for (const TaggedWorkerSpan& s : spans) {
    if (s.query == query && s.begin < first) first = s.begin;
  }
  return first;
}

TEST(ExecutorRuntimeTest, HigherPriorityOvertakesTheWaitQueue) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
  // Every group takes the full width, so execution is serialized and the
  // wait queue's order is exactly the execution order.
  ASSERT_TRUE(runtime.AddGroup({"blocker", 1.0, 0, 0.0}).ok());
  ASSERT_TRUE(runtime.AddGroup({"low", 1.0, 0, 0.0}).ok());
  ASSERT_TRUE(runtime.AddGroup({"high", 1.0, 5, 0.0}).ok());

  // Two back-to-back blockers hold the fleet while the low/high pair is
  // submitted; the high-priority query must run before the earlier-
  // submitted low-priority one.
  auto b1 = runtime.Submit(bench.join_plan(), {"blocker", 0.0, nullptr});
  ASSERT_TRUE(b1.ok()) << b1.status();
  auto b2 = runtime.Submit(bench.join_plan(), {"blocker", 0.0, nullptr});
  ASSERT_TRUE(b2.ok()) << b2.status();
  auto low = runtime.Submit(bench.scan_plan(), {"low", 0.0, nullptr});
  ASSERT_TRUE(low.ok()) << low.status();
  auto high = runtime.Submit(bench.scan_plan(), {"high", 0.0, nullptr});
  ASSERT_TRUE(high.ok()) << high.status();

  for (const auto& t : {*b1, *b2, *low, *high}) {
    auto result = t->Wait();
    ASSERT_TRUE(result.ok()) << result.status();
  }
  const std::vector<TaggedWorkerSpan> spans = runtime.TaggedSpans();
  const Duration high_first = FirstSpanBegin(spans, (*high)->query_id());
  const Duration low_first = FirstSpanBegin(spans, (*low)->query_id());
  EXPECT_TRUE(high_first.is_finite());
  EXPECT_TRUE(low_first.is_finite());
  EXPECT_LT(high_first.seconds(), low_first.seconds());
  // The overtaken query waited at least as long as the one that jumped
  // the queue.
  EXPECT_GE((*low)->queue_delay().seconds(),
            (*high)->queue_delay().seconds());
}

// Stress the shared dispensers, admission bookkeeping, and the tagged
// span log under real thread contention (the TSan job runs this).
TEST(ExecutorRuntimeTest, ManyConcurrentQueriesStress) {
  RuntimeBench bench;
  ExecutorRuntime runtime(bench.data(), bench.BaseOptions(/*workers=*/4));
  ASSERT_TRUE(runtime.AddGroup({"join", 0.5, 1, 0.0}).ok());
  ASSERT_TRUE(runtime.AddGroup({"scan", 0.25, 0, 0.0}).ok());

  constexpr int kQueries = 12;
  std::vector<ExecutorRuntime::TicketPtr> tickets;
  std::vector<bool> is_join;
  for (int i = 0; i < kQueries; ++i) {
    const bool join = (i % 3) == 0;
    auto ticket = join
        ? runtime.Submit(bench.join_plan(), {"join", 100.0, nullptr})
        : runtime.Submit(bench.scan_plan(), {"scan", 0.0, nullptr});
    ASSERT_TRUE(ticket.ok()) << ticket.status();
    tickets.push_back(*ticket);
    is_join.push_back(join);
  }
  for (int i = 0; i < kQueries; ++i) {
    auto result = tickets[static_cast<std::size_t>(i)]->Wait();
    ASSERT_TRUE(result.ok()) << "query " << i << ": " << result.status();
    const Table& want =
        is_join[static_cast<std::size_t>(i)] ? bench.join_ref()
                                             : bench.scan_ref();
    EXPECT_EQ(result->table.num_rows(), want.num_rows()) << "query " << i;
  }
}

TEST(ExecutorRuntimeTest, ShutdownNeverStrandsAWaiter) {
  RuntimeBench bench;
  ExecutorRuntime::TicketPtr blocker;
  ExecutorRuntime::TicketPtr waiter;
  {
    ExecutorRuntime runtime(bench.data(), bench.BaseOptions());
    auto b = runtime.Submit(bench.join_plan(), {});
    ASSERT_TRUE(b.ok()) << b.status();
    blocker = *b;
    auto w = runtime.Submit(bench.join_plan(), {});
    ASSERT_TRUE(w.ok()) << w.status();
    waiter = *w;
    // Destructor: joins the in-flight blocker, fails the waiter if it
    // was never admitted.
  }
  auto blocker_result = blocker->Wait();
  ASSERT_TRUE(blocker_result.ok()) << blocker_result.status();
  auto waiter_result = waiter->Wait();
  if (waiter_result.ok()) {
    std::string diff;
    EXPECT_TRUE(TablesEqualUnordered(waiter_result->table,
                                     bench.join_ref(), 1e-9, &diff))
        << diff;
  } else {
    EXPECT_TRUE(waiter_result.status().IsUnavailable())
        << waiter_result.status();
  }
}

/// Mappings of this process (lines of /proc/self/maps); -1 when the
/// file is unavailable.
int MappingCount() {
  std::ifstream maps("/proc/self/maps");
  if (!maps) return -1;
  int lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

// Each query runs on its own coordination thread. A finished thread that
// is never joined keeps its stack mapped until the runtime dies, so a
// long-lived runtime would grow by a mapping or two per query and
// eventually fail to create threads at all.
TEST(ExecutorRuntimeTest, FinishedQueryThreadsAreReaped) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(1);
  data.LoadReplicated("nation", db.nation);
  ExecutorRuntime runtime(&data, Executor::Options{});
  const PlanPtr plan = ScanPlan("nation");
  const auto run = [&](int queries) {
    for (int i = 0; i < queries; ++i) {
      auto ticket = runtime.Submit(plan, {});
      ASSERT_TRUE(ticket.ok()) << ticket.status();
      auto result = (*ticket)->Wait();
      ASSERT_TRUE(result.ok()) << result.status();
    }
  };
  run(50);  // warm the allocator's per-thread arenas and stack cache
  const int before = MappingCount();
  if (before < 0) GTEST_SKIP() << "/proc/self/maps is unavailable";
  run(2000);
  EXPECT_LT(MappingCount() - before, 200);
}

// The runtime's queries run over the in-process transport, so their
// exchanges are metered like any other execution: remote bytes shipped,
// and per-node bytes received from other nodes.
TEST(ExecutorRuntimeTest, QueriesMeterInterconnectTraffic) {
  const TpchDatabase db = tpch::GenerateDatabase(TestOpts());
  ClusterData data(3);
  ASSERT_TRUE(
      data.LoadHashPartitioned("lineitem", *db.lineitem, "l_orderkey").ok());
  ASSERT_TRUE(
      data.LoadHashPartitioned("orders", *db.orders, "o_custkey").ok());
  data.LoadReplicated("supplier", db.supplier);
  data.LoadReplicated("nation", db.nation);
  auto plan = workload::PlanForKind(workload::QueryKind::kQ3, db);
  ASSERT_TRUE(plan.ok()) << plan.status();

  Executor::Options options;
  options.workers_per_node = 2;
  ExecutorRuntime runtime(&data, options);
  auto ticket = runtime.Submit(*plan, {});
  ASSERT_TRUE(ticket.ok()) << ticket.status();
  auto result = (*ticket)->Wait();
  ASSERT_TRUE(result.ok()) << result.status();

  EXPECT_GT(result->metrics.TotalRemoteBytes(), 0.0);
  ASSERT_EQ(result->metrics.nodes.size(), 3u);
  for (std::size_t node = 0; node < 3; ++node) {
    EXPECT_GT(result->metrics.nodes[node].total_received_remote_bytes(), 0.0)
        << "node " << node;
  }
}

}  // namespace
}  // namespace eedc::exec
