#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/stats.h"
#include "exec/reference.h"

namespace enginebench {

QueryKind QuerySequence::Next() {
  if (pos_ == kNumQueryKinds) {
    for (int k = 0; k < kNumQueryKinds; ++k) {
      round_[static_cast<std::size_t>(k)] = static_cast<QueryKind>(k);
    }
    // Fisher-Yates over one round.
    for (int i = kNumQueryKinds - 1; i > 0; --i) {
      const auto j = static_cast<std::size_t>(rng_.UniformInt(0, i));
      std::swap(round_[static_cast<std::size_t>(i)], round_[j]);
    }
    pos_ = 0;
  }
  return round_[static_cast<std::size_t>(pos_++)];
}

Tail TailLatency(std::vector<double> samples, int cap) {
  Tail tail;
  if (samples.empty()) return tail;
  std::sort(samples.begin(), samples.end());
  for (const int p : {99, 95, 90, 85, 80, 75, 50}) {
    if (p > cap && p != 50) continue;
    const double v = eedc::Percentile(samples, p / 100.0);
    const auto beyond = static_cast<int>(
        samples.end() - std::upper_bound(samples.begin(), samples.end(), v));
    tail = Tail{v, p, beyond};
    if (beyond >= kMinBeyond) break;
  }
  return tail;
}

double Median(std::vector<double> samples) {
  return samples.empty() ? 0.0 : eedc::Percentile(samples, 0.5);
}

bool ValidMetricName(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string Mismatch(QueryKind kind, const eedc::storage::Table& got,
                     const eedc::storage::Table& reference) {
  std::string diff;
  if (eedc::exec::TablesEqualUnordered(reference, got, 1e-6, &diff)) {
    return "";
  }
  return std::string(eedc::workload::QueryKindName(kind)) + ": " +
         (diff.empty() ? "tables differ" : diff);
}

void Tally::Verify(QueryKind kind, const eedc::storage::Table& got,
                   const eedc::storage::Table& reference) {
  const std::string diff = Mismatch(kind, got, reference);
  if (!diff.empty()) Fail(&mismatches, diff);
}

void Tally::Fail(std::int64_t* counter, const std::string& why) {
  ++*counter;
  if (first_failure.empty()) first_failure = why;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics[i].name) + ": {\"value\": " + Num(metrics[i].value) +
           ", \"unit\": " + Quote(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace enginebench
