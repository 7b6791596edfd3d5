// Tests for the streaming analytics path: LatencySketch correctness (merge
// algebra, quantile error bounds on benign and adversarial distributions),
// WindowedAggregator ring semantics at exact boundaries, OnlineDetector
// hysteresis + dedup, the shared open-alert registry, and the streaming-vs-
// batch cross-validation over a full simulation (DESIGN.md §8).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "agent/counters.h"
#include "agent/record.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/database.h"
#include "dsa/pa.h"
#include "netsim/fault.h"
#include "streaming/detector.h"
#include "streaming/sketch.h"
#include "streaming/window.h"
#include "topology/topology.h"

namespace pingmesh {
namespace {

using streaming::LatencySketch;
using streaming::OnlineDetector;
using streaming::WindowedAggregator;
using streaming::WindowStats;

// --- LatencySketch -----------------------------------------------------------

/// The sketch's own rank convention applied to the raw samples: the
/// ceil(q * n)-th ranked value (1-based).
std::int64_t exact_rank_quantile(std::vector<std::int64_t> v, double q) {
  std::sort(v.begin(), v.end());
  auto target = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (target == 0) target = 1;
  return v[target - 1];
}

void expect_quantiles_within_bound(const LatencySketch& sk,
                                   const std::vector<std::int64_t>& samples,
                                   const char* label) {
  for (double q : {0.10, 0.50, 0.90, 0.99, 0.999}) {
    std::int64_t exact = exact_rank_quantile(samples, q);
    std::int64_t est = sk.quantile(q);
    // The documented bound plus float-boundary slack: a value landing exactly
    // on a gamma^k boundary may round into the adjacent bucket, whose
    // representative still satisfies the sqrt(gamma) ratio against it.
    double tol = sk.relative_error_bound() * static_cast<double>(exact) * 1.001 + 2.0;
    EXPECT_NEAR(static_cast<double>(est), static_cast<double>(exact), tol)
        << label << " q=" << q;
  }
}

TEST(LatencySketch, EmptyAndSingleValue) {
  LatencySketch sk;
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.quantile(0.5), 0);
  EXPECT_EQ(sk.min(), 0);
  EXPECT_EQ(sk.max(), 0);
  sk.record(micros(237));
  // A single sample: every quantile clamps to the observed (exact) value.
  EXPECT_EQ(sk.count(), 1u);
  EXPECT_EQ(sk.p50(), micros(237));
  EXPECT_EQ(sk.p999(), micros(237));
  EXPECT_EQ(sk.min(), micros(237));
  EXPECT_EQ(sk.max(), micros(237));
  EXPECT_DOUBLE_EQ(sk.mean(), static_cast<double>(micros(237)));
}

TEST(LatencySketch, WeightedRecordMatchesRepeated) {
  LatencySketch a;
  LatencySketch b;
  a.record(micros(500), 10);
  for (int i = 0; i < 10; ++i) b.record(micros(500));
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.p50(), b.p50());
  EXPECT_EQ(a.p99(), b.p99());
}

TEST(LatencySketch, ErrorBoundUniform) {
  Rng rng(1);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  for (int i = 0; i < 20000; ++i) {
    auto v = static_cast<std::int64_t>(rng.uniform(5.0e4, 1.0e6));  // 50us..1ms
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "uniform");
}

TEST(LatencySketch, ErrorBoundLogNormal) {
  Rng rng(2);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  double log_median = std::log(2.0e5);  // 200us median
  for (int i = 0; i < 20000; ++i) {
    auto v = static_cast<std::int64_t>(std::exp(log_median + 0.6 * rng.normal()));
    v = std::clamp<std::int64_t>(v, micros(2), seconds(10));
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "lognormal");
}

TEST(LatencySketch, ErrorBoundBimodalAdversarial) {
  // Two tight modes three decades apart: quantiles sit right at the cliff,
  // the worst case for bucketed sketches.
  Rng rng(3);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  for (int i = 0; i < 20000; ++i) {
    std::int64_t v = rng.chance(0.2)
                         ? static_cast<std::int64_t>(rng.uniform(3.9e6, 4.1e6))
                         : static_cast<std::int64_t>(rng.uniform(1.9e5, 2.1e5));
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "bimodal");
}

TEST(LatencySketch, ErrorBoundHeavyTailAdversarial) {
  // Pareto(alpha=1.2) from 100us, clamped to 10s: the P999 lives deep in a
  // sparse tail spanning many octaves.
  Rng rng(4);
  std::vector<std::int64_t> samples;
  LatencySketch sk;
  for (int i = 0; i < 20000; ++i) {
    double u = rng.uniform();
    if (u < 1e-9) u = 1e-9;
    auto v = static_cast<std::int64_t>(1.0e5 * std::pow(u, -1.0 / 1.2));
    v = std::min<std::int64_t>(v, seconds(10));
    samples.push_back(v);
    sk.record(v);
  }
  expect_quantiles_within_bound(sk, samples, "heavy-tail");
}

TEST(LatencySketch, MergeMatchesUnion) {
  Rng rng(5);
  LatencySketch a;
  LatencySketch b;
  LatencySketch whole;
  for (int i = 0; i < 5000; ++i) {
    auto v = static_cast<std::int64_t>(rng.uniform(1.0e4, 5.0e6));
    (i % 2 ? a : b).record(v);
    whole.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_EQ(a.min(), whole.min());
  EXPECT_EQ(a.max(), whole.max());
  EXPECT_DOUBLE_EQ(a.mean(), whole.mean());
  for (double q = 0.01; q < 1.0; q += 0.01) {
    EXPECT_EQ(a.quantile(q), whole.quantile(q)) << "q=" << q;
  }
}

TEST(LatencySketch, MergeIsAssociativeAndCommutative) {
  Rng rng(6);
  auto fill = [&rng](LatencySketch& sk, int n) {
    for (int i = 0; i < n; ++i) {
      sk.record(static_cast<std::int64_t>(rng.uniform(2.0e4, 2.0e6)));
    }
  };
  LatencySketch a;
  LatencySketch b;
  LatencySketch c;
  fill(a, 1000);
  fill(b, 1700);
  fill(c, 300);

  LatencySketch ab_c = a;  // (A + B) + C
  ab_c.merge(b);
  ab_c.merge(c);
  LatencySketch bc = b;  // A + (B + C)
  bc.merge(c);
  LatencySketch a_bc = a;
  a_bc.merge(bc);
  LatencySketch cba = c;  // (C + B) + A — commuted order
  cba.merge(b);
  cba.merge(a);

  EXPECT_EQ(ab_c.count(), a_bc.count());
  EXPECT_EQ(ab_c.count(), cba.count());
  for (double q = 0.005; q < 1.0; q += 0.005) {
    EXPECT_EQ(ab_c.quantile(q), a_bc.quantile(q)) << "q=" << q;
    EXPECT_EQ(ab_c.quantile(q), cba.quantile(q)) << "q=" << q;
  }
  EXPECT_EQ(ab_c.min(), cba.min());
  EXPECT_EQ(ab_c.max(), cba.max());
}

TEST(LatencySketch, MergeRejectsGeometryMismatch) {
  LatencySketch a;  // default 1%
  LatencySketch b(LatencySketch::Config{0.02, 1'000, 16 * kNanosPerSecond});
  EXPECT_FALSE(a.mergeable_with(b));
  EXPECT_THROW(a.merge(b), std::invalid_argument);
}

TEST(LatencySketch, OutOfRangeValuesClampButStayExactWhenAlone) {
  LatencySketch sk;
  sk.record(10);  // below min_value_ns: first bucket, clamped to observed
  EXPECT_EQ(sk.p50(), 10);
  LatencySketch high;
  high.record(120 * kNanosPerSecond);  // above max: saturating top bucket
  EXPECT_EQ(high.p50(), 120 * kNanosPerSecond);
}

TEST(LatencySketch, ClearKeepsGeometryAndAllocatesNothing) {
  LatencySketch sk;
  std::size_t buckets = sk.bucket_count();
  std::size_t mem = sk.memory_bytes();
  sk.record(micros(100), 50);
  sk.clear();
  EXPECT_EQ(sk.count(), 0u);
  EXPECT_EQ(sk.quantile(0.5), 0);
  EXPECT_EQ(sk.bucket_count(), buckets);
  EXPECT_EQ(sk.memory_bytes(), mem);
  sk.record(micros(300));
  EXPECT_EQ(sk.p50(), micros(300));
}

TEST(LatencySketch, MemoryIsSmallAndFixed) {
  LatencySketch sk;  // 1% over 1us..60s
  EXPECT_LT(sk.memory_bytes(), 16u * 1024u);
  std::size_t before = sk.memory_bytes();
  for (int i = 0; i < 100000; ++i) sk.record(micros(1) + i);
  EXPECT_EQ(sk.memory_bytes(), before);
}

TEST(LatencySketch, InvalidGeometryThrows) {
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.0, 1'000, kNanosPerSecond}),
               std::invalid_argument);
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.5, 1'000, kNanosPerSecond}),
               std::invalid_argument);
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.01, 0, kNanosPerSecond}),
               std::invalid_argument);
  EXPECT_THROW(LatencySketch(LatencySketch::Config{0.01, 1'000, 1'000}),
               std::invalid_argument);
}

// Property sweep: quantiles stay within relative error across distributions
// (uniform, exponential, log-normal), against exact_quantile's rank rule.
class HistogramPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(HistogramPropertyTest, QuantilesWithinRelativeError) {
  int seed = GetParam();
  Rng r(static_cast<std::uint64_t>(seed));
  LatencySketch sk;
  std::vector<double> exact;
  int which = seed % 3;
  for (int i = 0; i < 30000; ++i) {
    double v = 0;
    switch (which) {
      case 0: v = r.uniform(2'000, 5'000'000); break;
      case 1: v = r.exponential(300'000) + 1'000; break;
      default: v = r.lognormal(11.5, 1.4); break;
    }
    auto iv = std::max<std::int64_t>(1, static_cast<std::int64_t>(v));
    sk.record(iv);
    exact.push_back(static_cast<double>(iv));
  }
  for (double q : {0.25, 0.5, 0.75, 0.9, 0.99}) {
    double want = exact_quantile(exact, q);
    EXPECT_NEAR(static_cast<double>(sk.quantile(q)), want, std::max(want * 0.06, 2000.0))
        << "seed=" << seed << " q=" << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramPropertyTest, ::testing::Range(1, 13));

/// The sketch's quantile convention worked out from the raw samples: the
/// representative of the bucket holding the ceil(q * n)-th ranked sample,
/// clamped to the observed [min, max]. The representative is read from a
/// probe sketch {1, x, huge}, whose median is x's bucket unclamped.
std::int64_t sample_rank_quantile(const std::vector<std::int64_t>& v, double q,
                                  const LatencySketch::Config& geometry) {
  if (v.empty()) return 0;
  LatencySketch probe(geometry);
  probe.record(1);
  probe.record(exact_rank_quantile(v, q));
  probe.record(std::numeric_limits<std::int64_t>::max() / 2);
  auto [lo, hi] = std::minmax_element(v.begin(), v.end());
  return std::clamp(probe.quantile(0.5), *lo, *hi);
}

// Property sweep: union_quantile over a set of pod-pair-cell sub-window
// sketches equals merging them into one sketch and taking quantile(q) — the
// same rank, the same bucket, the same observed min/max clamp — and both
// equal the convention worked out from the raw samples. Each trial draws 0-6
// sub-windows; a sub-window is empty, holds one sample, or holds up to 40
// drawn from a mix that includes values at or below min_value_ns and at or
// above max_value_ns.
class UnionQuantilePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(UnionQuantilePropertyTest, EqualsMergeThenQuantile) {
  Rng r(static_cast<std::uint64_t>(GetParam()));
  const LatencySketch::Config geometry = agent::kPairCellSketch;
  auto draw = [&]() -> std::int64_t {
    switch (r.uniform_u32(6)) {
      case 0: return 1 + r.uniform_u32(static_cast<std::uint32_t>(geometry.min_value_ns));
      case 1: return geometry.max_value_ns + r.uniform_u32(1'000'000'000);
      case 2: return seconds(3) + r.uniform_u32(50'000'000);  // 3 s retransmit band
      default: return static_cast<std::int64_t>(r.lognormal(12.4, 0.8));
    }
  };
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<LatencySketch> subs;
    std::vector<std::int64_t> samples;
    auto record = [&](LatencySketch& sk) {
      std::int64_t v = draw();
      sk.record(v);
      samples.push_back(v);
    };
    auto n = r.uniform_u32(7);
    subs.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      LatencySketch& sk = subs.emplace_back(geometry);
      switch (r.uniform_u32(3)) {
        case 0: break;  // empty
        case 1: record(sk); break;
        default:
          for (std::uint32_t k = 0, m = 2 + r.uniform_u32(39); k < m; ++k) record(sk);
      }
    }
    LatencySketch merged(geometry);
    std::vector<const LatencySketch*> parts;
    for (const LatencySketch& sk : subs) {
      merged.merge(sk);
      parts.push_back(&sk);
    }
    for (double q : {0.5, 0.99}) {
      EXPECT_EQ(LatencySketch::union_quantile(parts, q), merged.quantile(q))
          << "seed=" << GetParam() << " trial=" << trial << " parts=" << n << " q=" << q;
      EXPECT_EQ(merged.quantile(q), sample_rank_quantile(samples, q, geometry))
          << "seed=" << GetParam() << " trial=" << trial << " q=" << q;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, UnionQuantilePropertyTest, ::testing::Range(1, 9));

TEST(LatencySketch, UnionQuantileRejectsGeometryMismatch) {
  LatencySketch a(agent::kPairCellSketch);
  LatencySketch b;  // default 1% geometry
  a.record(micros(200));
  b.record(micros(300));
  std::vector<const LatencySketch*> parts = {&a, &b};
  EXPECT_THROW((void)LatencySketch::union_quantile(parts, 0.5), std::invalid_argument);
}

// --- WindowedAggregator ------------------------------------------------------

class WindowTest : public ::testing::Test {
 protected:
  WindowTest()
      : topo_(topo::Topology::build({topo::small_dc_spec("DC1", "US West")})),
        agg_(topo_, WindowedAggregator::Config{}) {}

  [[nodiscard]] ServerId srv(std::uint32_t pod, std::size_t i) const {
    return topo_.pod(PodId{pod}).servers[i];
  }

  agent::LatencyRecord rec(std::uint32_t src_pod, std::uint32_t dst_pod, SimTime ts,
                           bool success, SimTime rtt, std::size_t i = 0) const {
    agent::LatencyRecord r;
    r.timestamp = ts;
    r.src_ip = topo_.server(srv(src_pod, i % 8)).ip;
    r.dst_ip = topo_.server(srv(dst_pod, i % 8)).ip;
    r.success = success;
    r.rtt = rtt;
    return r;
  }

  topo::Topology topo_;
  WindowedAggregator agg_;  // W = 10s, N = 6
};

TEST_F(WindowTest, IngestClassifiesLikeBatch) {
  // 4 clean, 2 one-SYN-drop (3s), 1 two-SYN-drop (9s), 3 failures.
  for (int i = 0; i < 4; ++i) agg_.ingest(rec(0, 1, seconds(1) + i, true, micros(200 + i)));
  agg_.ingest(rec(0, 1, seconds(2), true, seconds(3)));
  agg_.ingest(rec(0, 1, seconds(3), true, seconds(3) + millis(30)));
  agg_.ingest(rec(0, 1, seconds(4), true, seconds(9)));
  for (int i = 0; i < 3; ++i) agg_.ingest(rec(0, 1, seconds(5) + i, false, 0));

  auto s = agg_.query(PodId{0}, PodId{1}, seconds(9));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 10u);
  EXPECT_EQ(s->successes, 7u);
  EXPECT_EQ(s->failures, 3u);
  EXPECT_EQ(s->probes_3s, 2u);
  EXPECT_EQ(s->probes_9s, 1u);
  EXPECT_EQ(s->drop_signatures(), 3u);
  // Signatures never enter the latency sketch: p99 stays in the clean band.
  EXPECT_LT(s->p99_ns, millis(1));
  EXPECT_GE(s->p50_ns, micros(190));
  // Reverse direction unseen.
  EXPECT_FALSE(agg_.query(PodId{1}, PodId{0}, seconds(9)).has_value());
}

TEST_F(WindowTest, RecordAtExactBoundaryLandsInNewWindow) {
  agg_.ingest(rec(0, 0, seconds(10), true, micros(150)));
  auto lo = agg_.query_range(PodId{0}, PodId{0}, seconds(0), seconds(10));
  auto hi = agg_.query_range(PodId{0}, PodId{0}, seconds(10), seconds(20));
  ASSERT_TRUE(lo.has_value());
  ASSERT_TRUE(hi.has_value());
  EXPECT_EQ(lo->probes, 0u);  // [0,10) does not contain ts=10
  EXPECT_EQ(hi->probes, 1u);  // [10,20) does
}

TEST_F(WindowTest, ExpiryAtExactHorizonBoundary) {
  agg_.ingest(rec(0, 0, seconds(5), true, micros(150)));
  // now=29: live horizon covers [0,10)..[20,30) -> included.
  auto s = agg_.query(PodId{0}, PodId{0}, seconds(29));
  ASSERT_TRUE(s.has_value());
  // Default N=6: live horizon at 29 is [-30, 30) -> sub-window [0,10) live.
  EXPECT_EQ(s->probes, 1u);
  // now=59: live horizon [0,10)..[50,60) still includes it (edge of ring).
  s = agg_.query(PodId{0}, PodId{0}, seconds(59));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 1u);
  // now=60: live horizon [10,70) — the record just aged out, exactly at the
  // boundary.
  s = agg_.query(PodId{0}, PodId{0}, seconds(60));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 0u);
}

TEST_F(WindowTest, LateRecordPastHorizonIsDroppedNotMisfiled) {
  agg_.ingest(rec(0, 0, seconds(65), true, micros(150)));  // slot 0 -> [60,70)
  EXPECT_EQ(agg_.late_dropped(), 0u);
  agg_.ingest(rec(0, 0, seconds(5), true, micros(150)));  // slot 0 already at 60
  EXPECT_EQ(agg_.late_dropped(), 1u);
  auto s = agg_.query_range(PodId{0}, PodId{0}, seconds(60), seconds(70));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 1u);  // the late record did not pollute the new window
  EXPECT_EQ(agg_.records_ingested(), 1u);
}

TEST_F(WindowTest, LateRecordWithinHorizonLandsInItsWindow) {
  agg_.ingest(rec(0, 0, seconds(65), true, micros(150)));
  agg_.ingest(rec(0, 0, seconds(45), true, micros(150)));  // late but retained slot
  EXPECT_EQ(agg_.late_dropped(), 0u);
  auto s = agg_.query_range(PodId{0}, PodId{0}, seconds(40), seconds(50));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->probes, 1u);
}

TEST_F(WindowTest, UnknownIpsAreSkippedLikeBatchFilter) {
  agent::LatencyRecord r = rec(0, 1, seconds(1), true, micros(200));
  r.dst_ip = IpAddr{0xdeadbeef};
  agg_.ingest(r);
  EXPECT_EQ(agg_.records_skipped(), 1u);
  EXPECT_EQ(agg_.records_ingested(), 0u);
  EXPECT_EQ(agg_.pair_count(), 0u);
}

TEST_F(WindowTest, QueryRangeRoundsOutwardToSubWindowBoundaries) {
  agg_.ingest(rec(0, 0, seconds(12), true, micros(150)));
  auto s = agg_.query_range(PodId{0}, PodId{0}, seconds(11), seconds(13));
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(s->window_start, seconds(10));
  EXPECT_EQ(s->window_end, seconds(20));
  EXPECT_EQ(s->probes, 1u);
}

TEST_F(WindowTest, SteadyStateIngestKeepsMemoryFlat) {
  for (int w = 0; w < 3; ++w) agg_.ingest(rec(0, 1, seconds(10 * w), true, micros(200)));
  std::size_t warm = agg_.memory_bytes();
  // Hundreds more records across many ring wraps for the same pair: the
  // allocation-free contract means footprint must not move at all.
  for (int w = 3; w < 200; ++w) {
    for (int i = 0; i < 5; ++i) {
      agg_.ingest(rec(0, 1, seconds(10 * w) + i, true, micros(200 + i), i));
    }
  }
  EXPECT_EQ(agg_.memory_bytes(), warm);
  EXPECT_EQ(agg_.pair_count(), 1u);
}

// --- OnlineDetector ----------------------------------------------------------

class DetectorTest : public ::testing::Test {
 protected:
  DetectorTest()
      : topo_(topo::Topology::build({topo::small_dc_spec("DC1", "US West")})),
        agg_(topo_, WindowedAggregator::Config{}),
        det_(topo_, db_, streaming::DetectorConfig{}) {}

  agent::LatencyRecord rec(std::uint32_t src_pod, std::uint32_t dst_pod, SimTime ts,
                           bool success, SimTime rtt, std::size_t i = 0) const {
    agent::LatencyRecord r;
    r.timestamp = ts;
    r.src_ip = topo_.server(topo_.pod(PodId{src_pod}).servers[i % 8]).ip;
    r.dst_ip = topo_.server(topo_.pod(PodId{dst_pod}).servers[i % 8]).ip;
    r.success = success;
    r.rtt = rtt;
    return r;
  }

  /// Fill sub-window w with 12 records for (src, dst). Mode: 'c' clean,
  /// 'b' breach (4 of 12 carry a 3s SYN-drop signature), 'f' all failed,
  /// 's' slow (5 ms clean RTT), 'p' partial black-hole (4 of 12 fail, the
  /// rest clean — the ECMP-subset loss shape).
  void fill(std::uint32_t src, std::uint32_t dst, int w, char mode) {
    for (int i = 0; i < 12; ++i) {
      SimTime ts = seconds(10 * w) + i * millis(700);
      switch (mode) {
        case 'c': agg_.ingest(rec(src, dst, ts, true, micros(200) + i, i)); break;
        case 'b':
          agg_.ingest(i < 4 ? rec(src, dst, ts, true, seconds(3), i)
                            : rec(src, dst, ts, true, micros(200) + i, i));
          break;
        case 'f': agg_.ingest(rec(src, dst, ts, false, 0, i)); break;
        case 's': agg_.ingest(rec(src, dst, ts, true, millis(5) + i, i)); break;
        case 'p':
          agg_.ingest(i < 4 ? rec(src, dst, ts, false, 0, i)
                            : rec(src, dst, ts, true, micros(200) + i, i));
          break;
        default: FAIL() << "bad mode";
      }
    }
  }

  /// Alerts matching one streaming rule.
  [[nodiscard]] std::vector<dsa::AlertRow> alerts_for(const std::string& rule) const {
    std::vector<dsa::AlertRow> out;
    for (const auto& a : db_.alerts) {
      if (a.rule == rule) out.push_back(a);
    }
    return out;
  }

  topo::Topology topo_;
  dsa::Database db_;
  WindowedAggregator agg_;  // W = 10s, N = 6
  OnlineDetector det_;      // eval 10s, open_after 2, close_after 3
};

TEST_F(DetectorTest, DropSpikeOpensOnceThenReopensAfterClear) {
  // Phase 1: four breaching windows. Opens at the second evaluation and is
  // suppressed afterwards (one AlertRow for a persistent fault).
  for (int w = 0; w <= 3; ++w) {
    fill(0, 1, w, 'b');
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 1u);
  EXPECT_EQ(alerts_for("stream:drop_spike")[0].time, seconds(20));
  EXPECT_EQ(alerts_for("stream:drop_spike")[0].severity, dsa::AlertSeverity::kCritical);
  EXPECT_TRUE(db_.alert_open(alerts_for("stream:drop_spike")[0].scope, "stream:drop_spike"));

  // Phase 2: clean windows. The breach leaves the live horizon, and after
  // close_after consecutive clean evaluations the registry entry closes
  // without emitting a row.
  for (int w = 4; w <= 12; ++w) {
    fill(0, 1, w, 'c');
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 1u);
  EXPECT_FALSE(db_.alert_open(alerts_for("stream:drop_spike")[0].scope, "stream:drop_spike"));
  EXPECT_EQ(det_.alerts_closed(), 1u);

  // Phase 3: fault returns -> a second AlertRow (not a duplicate-suppressed
  // stale one).
  for (int w = 13; w <= 14; ++w) {
    fill(0, 1, w, 'b');
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 2u);
  EXPECT_EQ(det_.alerts_opened(), 2u);
  // No other rule fired along the way.
  EXPECT_EQ(db_.alerts.size(), 2u);
}

TEST_F(DetectorTest, SilentPairFromBootIsCriticalAfterHysteresis) {
  for (int w = 0; w <= 2; ++w) {
    fill(0, 2, w, 'f');
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  auto silent = alerts_for("stream:silent_pair");
  ASSERT_EQ(silent.size(), 1u);
  EXPECT_EQ(silent[0].time, seconds(20));  // open_after = 2 evaluations
  EXPECT_EQ(silent[0].severity, dsa::AlertSeverity::kCritical);
  EXPECT_NE(silent[0].scope.find("->"), std::string::npos);
  EXPECT_EQ(db_.alerts.size(), 1u);  // no drop-spike (failures carry no signature)
}

TEST_F(DetectorTest, FailRateCatchesPartialBlackholeWithoutSilencingPair) {
  // A partial ToR black-hole fails a fraction of a pair's probes while the
  // rest connect fine — the shape the healing loop's trigger must catch.
  // 4/12 failures per window clears the 0.15 rate threshold once the live
  // horizon holds >= min_failures (8), i.e. from the second window; the
  // open_after=2 hysteresis then opens one critical fail_rate alert.
  for (int w = 0; w <= 3; ++w) {
    fill(0, 1, w, 'p');
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  auto fail_rate = alerts_for("stream:fail_rate");
  ASSERT_EQ(fail_rate.size(), 1u);
  EXPECT_EQ(fail_rate[0].time, seconds(30));
  EXPECT_EQ(fail_rate[0].severity, dsa::AlertSeverity::kCritical);
  EXPECT_TRUE(db_.alert_open(fail_rate[0].scope, "stream:fail_rate"));
  // Successes keep flowing, so the pair is not silent; the failures carry
  // no SYN-drop latency signature, so no drop-spike either.
  EXPECT_EQ(alerts_for("stream:silent_pair").size(), 0u);
  EXPECT_EQ(alerts_for("stream:drop_spike").size(), 0u);

  // Fault clears: after close_after clean evaluations the alert closes.
  for (int w = 4; w <= 12; ++w) {
    fill(0, 1, w, 'c');
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  EXPECT_FALSE(db_.alert_open(fail_rate[0].scope, "stream:fail_rate"));
  EXPECT_EQ(alerts_for("stream:fail_rate").size(), 1u);  // no duplicate row
}

TEST_F(DetectorTest, SilentPairWaitsForGracePeriodAfterLastSuccess) {
  fill(0, 3, 0, 'c');  // healthy window: last success ~9.7s
  for (int w = 1; w <= 5; ++w) {
    fill(0, 3, w, 'f');
    det_.evaluate(agg_, seconds(10 * (w + 1)));
    if (seconds(10 * (w + 1)) < seconds(50)) {
      // Before last_success + silent_after + one hysteresis step, nothing.
      EXPECT_EQ(alerts_for("stream:silent_pair").size(), 0u) << "w=" << w;
    }
  }
  // Breach first seen at t=40 (30s grace over), opens at t=50.
  auto silent = alerts_for("stream:silent_pair");
  ASSERT_EQ(silent.size(), 1u);
  EXPECT_EQ(silent[0].time, seconds(50));
}

TEST_F(DetectorTest, LatencyBoostAgainstFrozenBaseline) {
  for (int w = 0; w <= 5; ++w) {
    fill(1, 0, w, 'c');  // establish ~200us baseline
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  EXPECT_EQ(db_.alerts.size(), 0u);
  for (int w = 6; w <= 9; ++w) {
    fill(1, 0, w, 's');  // 5 ms: > 3x baseline and > 1 ms floor
    det_.evaluate(agg_, seconds(10 * (w + 1)));
  }
  auto boosts = alerts_for("stream:latency_boost");
  ASSERT_EQ(boosts.size(), 1u);  // opened once, then suppressed (and the
                                 // baseline is frozen while breaching)
  // The live-horizon median crosses 3x baseline once slow windows are the
  // majority (eval t=90); the 2-evaluation hysteresis opens at t=100.
  EXPECT_EQ(boosts[0].time, seconds(100));
  EXPECT_EQ(boosts[0].severity, dsa::AlertSeverity::kWarning);
  EXPECT_EQ(db_.alerts.size(), 1u);
}

TEST_F(DetectorTest, MinProbesGateSuppressesThinPairs) {
  for (int i = 0; i < 3; ++i) {
    agg_.ingest(rec(2, 3, seconds(1) + i, false, 0, static_cast<std::size_t>(i)));
  }
  det_.evaluate(agg_, seconds(10));
  det_.evaluate(agg_, seconds(20));
  EXPECT_EQ(db_.alerts.size(), 0u);
}

// --- open-alert registry + PA dedup ------------------------------------------

TEST(OpenAlertRegistry, OpenCloseLifecycle) {
  dsa::Database db;
  EXPECT_TRUE(db.open_alert("pod X", "rule", seconds(5)));
  EXPECT_FALSE(db.open_alert("pod X", "rule", seconds(10)));  // already open
  EXPECT_TRUE(db.open_alert("pod X", "other-rule", seconds(10)));
  EXPECT_TRUE(db.alert_open("pod X", "rule"));
  EXPECT_EQ(db.open_alert_count(), 2u);
  EXPECT_TRUE(db.close_alert("pod X", "rule"));
  EXPECT_FALSE(db.close_alert("pod X", "rule"));  // already closed
  EXPECT_FALSE(db.alert_open("pod X", "rule"));
  EXPECT_TRUE(db.open_alert("pod X", "rule", seconds(20)));  // can re-open
}

TEST(PaAlertDedup, PersistentBreachYieldsOneRowUntilCleared) {
  auto topo = topo::Topology::build({topo::small_dc_spec("DC1", "US West")});
  dsa::Database db;
  dsa::AlertThresholds thr;  // drop_rate 1e-3, min_probes 20
  auto add_row = [&db](SimTime t, std::uint64_t sigs) {
    dsa::PaCounterRow row;
    row.time = t;
    row.pod = PodId{0};
    row.probes = 500;
    row.drop_signatures = sigs;
    row.drop_rate = static_cast<double>(sigs) / 500.0;
    db.pa_counters.push_back(row);
  };

  add_row(minutes(5), 5);  // breach
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, 0, minutes(5)), 1);
  add_row(minutes(10), 6);  // still breaching: dedup suppresses
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, minutes(5), minutes(10)), 0);
  EXPECT_EQ(db.alerts.size(), 1u);
  add_row(minutes(15), 0);  // trusted clean window closes the condition
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, minutes(10), minutes(15)), 0);
  add_row(minutes(20), 7);  // fresh breach pages again
  EXPECT_EQ(dsa::evaluate_pa_alerts(db, topo, thr, minutes(15), minutes(20)), 1);
  EXPECT_EQ(db.alerts.size(), 2u);
}

// --- end-to-end: cross-validation and detection freshness --------------------

TEST(StreamingCrossValidation, WindowsMatchBatchPodPairRows) {
  core::SimulationConfig cfg = core::streaming_test_config(7);
  // Widen the ring so every fresh batch window (written ~12..22 min after it
  // closes at this config's cadence) is still fully retained when compared.
  cfg.streaming.windows.sub_window = minutes(2);
  cfg.streaming.windows.sub_window_count = 32;  // 64-min horizon
  core::PingmeshSimulation sim(cfg);

  const streaming::WindowedAggregator& win = sim.streaming()->windows();
  std::size_t checked = 0;
  std::size_t next_row = 0;
  while (sim.now() < hours(2)) {
    sim.run_for(minutes(10));
    const auto& rows = sim.db().pod_pair_stats;
    for (; next_row < rows.size(); ++next_row) {
      const dsa::PodPairStatRow& row = rows[next_row];
      if (row.window_start <= sim.now() - win.horizon() + cfg.streaming.windows.sub_window) {
        continue;  // partly aged out of the ring; not comparable
      }
      auto s = win.query_range(row.src_pod, row.dst_pod, row.window_start, row.window_end);
      ASSERT_TRUE(s.has_value()) << "pair missing from streaming state";
      // Same records, same classification: the counters agree exactly.
      EXPECT_EQ(s->probes, row.probes) << "window@" << to_seconds(row.window_start);
      EXPECT_EQ(s->successes, row.successes);
      EXPECT_EQ(s->failures, row.failures);
      EXPECT_EQ(s->drop_signatures(), row.drop_signatures);
      // One tally and one sketch geometry on both paths: the percentiles
      // are equal, not merely close.
      EXPECT_EQ(s->p50_ns, row.p50_ns) << "p50 window@" << to_seconds(row.window_start);
      EXPECT_EQ(s->p99_ns, row.p99_ns) << "p99 window@" << to_seconds(row.window_start);
      ++checked;
    }
  }
  // Dozens of pod pairs per 10-min window over ~2 h: a real sample.
  EXPECT_GT(checked, 100u);
  EXPECT_GT(win.records_ingested(), 0u);
  EXPECT_EQ(win.late_dropped(), 0u);
}

TEST(StreamingDetection, BlackholeCaughtInUnderAMinute) {
  core::SimulationConfig cfg = core::streaming_test_config(5);
  core::PingmeshSimulation sim(cfg);
  sim.run_for(minutes(20));
  std::size_t alerts_before = sim.db().alerts.size();
  SimTime t0 = sim.now();

  // Full ToR blackhole on pod 0 (every src/dst pair pattern dead — the TCAM
  // corruption shape): failures, not 3s/9s signatures, so the PA path and
  // the drop-spike rule are structurally blind to it.
  SwitchId tor = sim.topology().pod(PodId{0}).tor;
  sim.faults().add_blackhole(tor, netsim::BlackholeMode::kSrcDstPair, 1.0, t0);
  sim.run_for(minutes(3));

  SimTime first_stream_alert = 0;
  bool found = false;
  for (std::size_t i = alerts_before; i < sim.db().alerts.size(); ++i) {
    const dsa::AlertRow& a = sim.db().alerts[i];
    if (a.rule.rfind("stream:", 0) == 0 && a.time >= t0) {
      if (!found || a.time < first_stream_alert) first_stream_alert = a.time;
      found = true;
    }
  }
  ASSERT_TRUE(found) << "streaming detector never fired on a full ToR blackhole";
  EXPECT_LE(first_stream_alert - t0, seconds(60));

  // The batch path hasn't even produced a row *covering* the fault yet: its
  // newest window closed at or before t0 (freshness floor = window length +
  // ingestion delay; ~20 min in production, paper §3.5).
  for (const dsa::PodPairStatRow& row : sim.db().pod_pair_stats) {
    EXPECT_LE(row.window_end, t0);
  }
}

TEST(StreamingConfigCheck, SilentAfterBelowProbeIntervalIsRejected) {
  // default_config probes every 2 minutes: with the detector's 30 s default
  // nearly every pair would look silent between probe rounds.
  core::SimulationConfig cfg = core::default_config(1);
  cfg.streaming.enabled = true;
  EXPECT_THROW(core::PingmeshSimulation{cfg}, std::invalid_argument);
  cfg.streaming.detector.silent_after = cfg.generator.intra_dc_interval - seconds(1);
  EXPECT_THROW(core::PingmeshSimulation{cfg}, std::invalid_argument);
  cfg.generator.intra_dc_interval = seconds(30);  // intra-pod still 2 min
  EXPECT_THROW(core::PingmeshSimulation{cfg}, std::invalid_argument);
  // Streaming off: the detector never runs, nothing to reject.
  cfg.streaming.enabled = false;
  EXPECT_NO_THROW(core::PingmeshSimulation{cfg});
  // The scenario configs that turn streaming on stay valid.
  EXPECT_NO_THROW(core::PingmeshSimulation{core::streaming_test_config(1)});
  EXPECT_NO_THROW(core::PingmeshSimulation{core::chaos_test_config(1)});
  EXPECT_NO_THROW(core::PingmeshSimulation{core::observability_test_config(1)});
}

TEST(StreamingConfigCheck, TwoMinuteCadenceWithFourMinuteSilenceOpensNoSilentPair) {
  // default_config's cadences (2-min probe interval, 1-min uploads) on a
  // small fleet whose pods are big enough (20 servers) that every pod pair
  // clears min_probes in the 60 s live window, with silent_after at two
  // missed probe rounds. A fault-free hour must open no silent_pair alert.
  core::SimulationConfig cfg = core::default_config(3);
  topo::DcSpec dc;
  dc.name = "DC1";
  dc.region = "US West";
  dc.podsets = 1;
  dc.pods_per_podset = 4;
  dc.servers_per_pod = 20;
  dc.leaves_per_podset = 2;
  dc.spines = 2;
  cfg.dcs = {dc};
  cfg.generator.enable_inter_dc = false;
  cfg.streaming.enabled = true;
  cfg.streaming.detector.silent_after = minutes(4);
  core::PingmeshSimulation sim(cfg);
  sim.run_for(hours(1));

  std::size_t silent = 0;
  for (const dsa::AlertRow& a : sim.db().alerts) silent += a.rule == "stream:silent_pair";
  EXPECT_EQ(silent, 0u);
  // Not vacuous: all 16 pod pairs were watched, every 10 s.
  EXPECT_EQ(sim.streaming()->windows().pair_count(), 16u);
  EXPECT_GE(sim.streaming()->detector().evaluations(), 360u);
}

TEST(StreamingDeterminism, WorkerCountDoesNotChangeStreamingResults) {
  // The tap runs in the serial upload-drain phase and the detector on the
  // driver thread: the whole streaming path must be bit-identical for any
  // worker count (DESIGN.md §7).
  core::SimulationConfig cfg1 = core::streaming_test_config(42);
  core::SimulationConfig cfg4 = core::streaming_test_config(42);
  cfg1.worker_threads = 1;
  cfg4.worker_threads = 4;
  core::PingmeshSimulation sim1(cfg1);
  core::PingmeshSimulation sim4(cfg4);
  sim1.run_for(minutes(40));
  sim4.run_for(minutes(40));

  const auto& w1 = sim1.streaming()->windows();
  const auto& w4 = sim4.streaming()->windows();
  EXPECT_EQ(w1.records_ingested(), w4.records_ingested());
  EXPECT_EQ(w1.pair_count(), w4.pair_count());
  EXPECT_EQ(sim1.streaming()->detector().evaluations(),
            sim4.streaming()->detector().evaluations());
  ASSERT_EQ(sim1.db().alerts.size(), sim4.db().alerts.size());
  for (std::size_t i = 0; i < sim1.db().alerts.size(); ++i) {
    EXPECT_EQ(sim1.db().alerts[i].time, sim4.db().alerts[i].time);
    EXPECT_EQ(sim1.db().alerts[i].rule, sim4.db().alerts[i].rule);
    EXPECT_EQ(sim1.db().alerts[i].scope, sim4.db().alerts[i].scope);
  }
  for (const topo::Pod& pod : sim1.topology().pods()) {
    auto a = w1.query(pod.id, pod.id, sim1.now());
    auto b = w4.query(pod.id, pod.id, sim4.now());
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a) {
      EXPECT_EQ(a->probes, b->probes);
      EXPECT_EQ(a->successes, b->successes);
      EXPECT_EQ(a->p99_ns, b->p99_ns);
    }
  }
}

/// Order-sensitive FNV-1a over every field of every alert row.
class AlertDigest {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void str(const std::string& s) {
    std::uint64_t n = s.size();
    bytes(&n, sizeof(n));
    bytes(s.data(), s.size());
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

struct AlertStream {
  std::uint64_t digest = 0;
  std::size_t rows = 0;
  std::size_t silent_rows = 0;
  std::size_t drop_rows = 0;
  std::uint64_t closed = 0;
};

/// One sim-hour of streaming_test_config with a full ToR black-hole
/// (20-40 min) and a 12% spine silent drop (30-45 min), digesting the whole
/// db.alerts sequence: time, severity, rule, scope, value and message.
AlertStream run_alert_stream(int workers) {
  core::SimulationConfig cfg = core::streaming_test_config(42);
  cfg.worker_threads = workers;
  core::PingmeshSimulation sim(cfg);
  const topo::Topology& topo = sim.topology();
  std::vector<SwitchId> spines = topo.switches_in_dc(DcId{0}, topo::SwitchKind::kSpine);
  sim.faults().add_blackhole(topo.pod(PodId{3}).tor, netsim::BlackholeMode::kSrcDstPair, 1.0,
                             minutes(20), minutes(40), /*salt=*/42);
  sim.faults().add_silent_random_drop(spines.at(1), 0.12, minutes(30), minutes(45));
  sim.run_for(hours(1));

  AlertStream out;
  AlertDigest d;
  for (const dsa::AlertRow& a : sim.db().alerts) {
    d.bytes(&a.time, sizeof(a.time));
    auto severity = static_cast<std::uint64_t>(a.severity);
    d.bytes(&severity, sizeof(severity));
    d.str(a.rule);
    d.str(a.scope);
    d.bytes(&a.value, sizeof(a.value));
    d.str(a.message);
    if (a.rule == "stream:silent_pair") ++out.silent_rows;
    if (a.rule == "stream:drop_spike") ++out.drop_rows;
  }
  out.digest = d.value();
  out.rows = sim.db().alerts.size();
  out.closed = sim.streaming()->detector().alerts_closed();
  return out;
}

TEST(StreamingAlertStream, DigestMatchesReferenceAt1And4Workers) {
  // Captured from the program before the detector evaluated windows in
  // place (snapshot + merged sketch per pair, strings built every
  // evaluation); see CHANGES.md. Any change to which alert opens when, or
  // to a row's text, moves it.
  constexpr std::uint64_t kReference = 0xa62f0fd647acb982ull;  // 58 rows
  for (int workers : {1, 4}) {
    AlertStream s = run_alert_stream(workers);
    EXPECT_EQ(s.digest, kReference) << "workers=" << workers << " digest=0x" << std::hex
                                    << s.digest << std::dec << " rows=" << s.rows;
    // The run exercises both fault shapes and the close path, so the digest
    // covers more than an empty table.
    EXPECT_GT(s.silent_rows, 0u) << "workers=" << workers;
    EXPECT_GT(s.drop_rows, 0u) << "workers=" << workers;
    EXPECT_GT(s.closed, 0u) << "workers=" << workers;
  }
}

}  // namespace
}  // namespace pingmesh
