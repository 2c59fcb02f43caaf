#include "report.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "tpch/dbgen.h"
#include "workload/profiles.h"
#include "workloads.h"

namespace enginebench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

TEST(TailLatency, PicksHighestPercentileWithTenBeyond) {
  const Tail t1000 = TailLatency(OneTo(1000));
  EXPECT_EQ(t1000.percentile, 99);
  EXPECT_EQ(t1000.beyond, 10);

  const Tail t200 = TailLatency(OneTo(200));
  EXPECT_EQ(t200.percentile, 95);
  EXPECT_EQ(t200.beyond, 10);

  const Tail t100 = TailLatency(OneTo(100));
  EXPECT_EQ(t100.percentile, 90);
  EXPECT_EQ(t100.beyond, 10);
  EXPECT_DOUBLE_EQ(t100.value, 90.1);
}

TEST(TailLatency, FallsBackWhenTooFewSamplesBeyond) {
  // In 1..91, p90 is exactly 82, with only 9 samples above it, so the
  // rule drops to p85.
  const Tail t = TailLatency(OneTo(91));
  EXPECT_EQ(t.percentile, 85);
  EXPECT_GE(t.beyond, kMinBeyond);

  const Tail tiny = TailLatency(OneTo(5));
  EXPECT_EQ(tiny.percentile, 50);
  EXPECT_LT(tiny.beyond, kMinBeyond);
}

TEST(TailLatency, NeverAboveTheCap) {
  const Tail t = TailLatency(OneTo(1000), 95);
  EXPECT_EQ(t.percentile, 95);
  EXPECT_EQ(t.beyond, 50);
  EXPECT_EQ(TailLatency(OneTo(1000), 90).percentile, 90);
  // A cap does not stop the fallback below it.
  EXPECT_EQ(TailLatency(OneTo(91), 95).percentile, 85);
}

TEST(TailLatency, TiesAtThePercentileAreNotBeyondIt) {
  std::vector<double> v(200, 1.0);
  for (int i = 0; i < 12; ++i) v.push_back(5.0);
  // p99 and p95 land on the tied 5.0s, with nothing strictly above them.
  const Tail t = TailLatency(v);
  EXPECT_EQ(t.percentile, 90);
  EXPECT_EQ(t.beyond, 12);
}

TEST(QuerySequence, SameSeedSameSequence) {
  QuerySequence a(42), b(42), c(43);
  std::vector<QueryKind> sa, sb, sc;
  for (int i = 0; i < 400; ++i) {
    sa.push_back(a.Next());
    sb.push_back(b.Next());
    sc.push_back(c.Next());
  }
  EXPECT_EQ(sa, sb);
  EXPECT_NE(sa, sc);
}

TEST(QuerySequence, EveryRoundHoldsEachKindOnce) {
  QuerySequence seq(7);
  for (int round = 0; round < 100; ++round) {
    std::set<QueryKind> kinds;
    for (int i = 0; i < kNumQueryKinds; ++i) kinds.insert(seq.Next());
    EXPECT_EQ(kinds.size(), static_cast<std::size_t>(kNumQueryKinds));
  }
}

TEST(MetricNames, CharsetAndLength) {
  EXPECT_TRUE(ValidMetricName("exec.stage.join_probe_ms"));
  EXPECT_TRUE(ValidMetricName("q1_p50_ms"));
  EXPECT_TRUE(ValidMetricName("9-lives"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("_x"));
  EXPECT_FALSE(ValidMetricName("a b"));
  EXPECT_FALSE(ValidMetricName("rate/s"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(MetricNames, EveryReportedMetricIsValidAndUnique) {
  std::set<std::string> seen;
  for (const auto* defs : {&EndToEndMetrics(), &LayerMetrics()}) {
    for (const MetricDef& d : *defs) {
      EXPECT_TRUE(ValidMetricName(d.name)) << d.name;
      EXPECT_TRUE(seen.insert(d.name).second) << "duplicate " << d.name;
      EXPECT_FALSE(d.unit.empty()) << d.name;
    }
  }
  EXPECT_EQ(EndToEndMetrics()[kGatedEndToEnd - 1].name, "peak_rss_mb");
}

TEST(Tally, InjectedMismatchedReferenceCountsAsFailed) {
  eedc::tpch::DbgenOptions options;
  options.scale_factor = 0.001;
  const eedc::tpch::TpchDatabase db = eedc::tpch::GenerateDatabase(options);
  options.seed += 1;
  const eedc::tpch::TpchDatabase other = eedc::tpch::GenerateDatabase(options);

  const auto run_q12 = [](const eedc::tpch::TpchDatabase& data) {
    eedc::exec::ClusterData cluster(1);
    for (const std::string& name : data.TableNames()) {
      cluster.LoadReplicated(name, data.ByName(name).value());
    }
    eedc::exec::Executor executor(&cluster);
    auto plan = eedc::workload::PlanForKind(QueryKind::kQ12, data);
    return executor.Execute(plan.value()).value().table;
  };
  const eedc::storage::Table got = run_q12(db);

  Tally tally;
  tally.attempted = 2;
  tally.Verify(QueryKind::kQ12, got, run_q12(db));
  EXPECT_EQ(tally.failed(), 0);
  tally.Verify(QueryKind::kQ12, got, run_q12(other));
  EXPECT_EQ(tally.mismatches, 1);
  EXPECT_EQ(tally.failed(), 1);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.5);
  EXPECT_NE(tally.first_failure.find("Q12"), std::string::npos);
}

TEST(Tally, ErrorsAndRejectionsCountToo) {
  Tally tally;
  tally.attempted = 4;
  tally.Fail(&tally.errors, "engine error");
  tally.Fail(&tally.rejected, "admission rejected");
  EXPECT_EQ(tally.failed(), 2);
  EXPECT_DOUBLE_EQ(tally.failed_frac(), 0.5);
  EXPECT_EQ(tally.first_failure, "engine error");
}

TEST(MetricsJson, KeepsEveryDigit) {
  const std::string json =
      MetricsJson({{"latency_ms", 1.2345678901234567, "ms"}});
  EXPECT_EQ(json,
            "{\"latency_ms\": {\"value\": 1.2345678901234567, "
            "\"unit\": \"ms\"}}");
  EXPECT_EQ(Quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
}

}  // namespace
}  // namespace enginebench
