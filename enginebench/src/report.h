// Pure helpers of the engine benchmark: the seeded query sequence, the
// tail-percentile rule, result verification tallies and the metric list
// every output line is rendered from. Nothing here touches the engine's
// execution path, so tests/report_test.cc covers it directly.
#ifndef ENGINEBENCH_REPORT_H_
#define ENGINEBENCH_REPORT_H_

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "storage/table.h"
#include "workload/arrival.h"

namespace enginebench {

using eedc::workload::QueryKind;
using eedc::workload::kNumQueryKinds;

/// A seeded uniform mix of Q1/Q3/Q12/Q21, drawn as shuffled rounds: each
/// run of four consecutive queries holds every kind exactly once, in a
/// seeded order. The kind shares are therefore exact at every round
/// boundary, so throughput does not swing with how many slow kinds a seed
/// happens to draw.
class QuerySequence {
 public:
  explicit QuerySequence(std::uint64_t seed) : rng_(seed) {}
  QueryKind Next();

 private:
  eedc::Rng rng_;
  std::array<QueryKind, kNumQueryKinds> round_{};
  int pos_ = kNumQueryKinds;
};

/// The highest percentile of p99/p95/p90, no higher than `cap`, that has
/// at least `kMinBeyond` samples strictly above it. Runs too short for p90
/// fall back through p85, p80, p75 and p50 under the same rule; `beyond`
/// < kMinBeyond flags a sample too small even for the median.
struct Tail {
  double value = 0.0;
  int percentile = 0;
  int beyond = 0;
};
inline constexpr int kMinBeyond = 10;
Tail TailLatency(std::vector<double> samples, int cap = 99);

/// Median (type-7 interpolation); 0 for an empty sample.
double Median(std::vector<double> samples);

/// Metric names are made of [A-Za-z0-9_.-], start with a letter or a
/// digit and are at most 64 characters long.
bool ValidMetricName(std::string_view name);

/// Empty when `got` equals the kind's reference (unordered, 1e-6 relative
/// on doubles); otherwise the first difference, prefixed by the kind.
std::string Mismatch(QueryKind kind, const eedc::storage::Table& got,
                     const eedc::storage::Table& reference);

/// Counts what a run attempted and how it failed. Every failure counts
/// once: an error returned by the engine, a submit the runtime rejected,
/// or a result that differs from the oracle's reference table.
struct Tally {
  std::int64_t attempted = 0;
  std::int64_t errors = 0;
  std::int64_t rejected = 0;
  std::int64_t mismatches = 0;
  std::string first_failure;

  std::int64_t failed() const { return errors + rejected + mismatches; }
  double failed_frac() const {
    return attempted == 0 ? 0.0
                          : static_cast<double>(failed()) /
                                static_cast<double>(attempted);
  }
  /// Counts a mismatch when Mismatch() reports one.
  void Verify(QueryKind kind, const eedc::storage::Table& got,
              const eedc::storage::Table& reference);
  void Fail(std::int64_t* counter, const std::string& why);
};

/// One named, united value of a result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Renders `{"name": {"value": v, "unit": "u"}, ...}` with every digit
/// of each value (17 significant digits round-trip a double).
std::string MetricsJson(const std::vector<Metric>& metrics);

/// Formats a double with 17 significant digits.
std::string Num(double v);

/// JSON string literal with quotes, backslashes and control characters
/// escaped.
std::string Quote(std::string_view s);

}  // namespace enginebench

#endif  // ENGINEBENCH_REPORT_H_
