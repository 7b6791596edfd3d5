// Unit tests for the common substrate: RNG, statistics helpers, XML, CSV,
// virtual clock and scheduler.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/ascii_chart.h"
#include "common/clock.h"
#include "common/csv.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/xml.h"

namespace pingmesh {
namespace {

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(Rng, DeterministicForSeed) {
  Rng a(123, 7);
  Rng b(123, 7);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u32(), b.next_u32());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(123, 7);
  Rng b(124, 7);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u32() == b.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitProducesIndependentStreams) {
  Rng parent(42);
  Rng c1 = parent.split(1);
  Rng c2 = parent.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (c1.next_u32() == c2.next_u32()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, UniformRange) {
  Rng r(1);
  for (int i = 0; i < 10000; ++i) {
    double u = r.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
  }
}

TEST(Rng, UniformU32Unbiased) {
  Rng r(2);
  const std::uint32_t n = 10;
  std::vector<int> counts(n, 0);
  const int trials = 100000;
  for (int i = 0; i < trials; ++i) ++counts[r.uniform_u32(n)];
  for (std::uint32_t k = 0; k < n; ++k) {
    EXPECT_NEAR(counts[k], trials / static_cast<int>(n), trials / 50);
  }
}

TEST(Rng, ExponentialMean) {
  Rng r(3);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) sum += r.exponential(5.0);
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(Rng, NormalMoments) {
  Rng r(4);
  double sum = 0, sq = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    double v = r.normal(10.0, 2.0);
    sum += v;
    sq += v * v;
  }
  double mean = sum / n;
  double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 10.0, 0.05);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.05);
}

TEST(Rng, ParetoAboveScale) {
  Rng r(5);
  for (int i = 0; i < 10000; ++i) EXPECT_GE(r.pareto(3.0, 1.5), 3.0);
}

TEST(Rng, ChanceProbability) {
  Rng r(6);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (r.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

// ---------------------------------------------------------------------------
// CounterRng
// ---------------------------------------------------------------------------

TEST(CounterRng, DeterministicForKey) {
  CounterRng a(0xfeedULL);
  CounterRng b(0xfeedULL);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(CounterRng, DifferentKeysDiffer) {
  CounterRng a(1);
  CounterRng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(CounterRng, IndependentInstancesShareNoState) {
  // The whole generator state is the key: draw i from a fresh instance
  // equals draw i from any other instance with the same key, regardless of
  // how many draws either has made. This is what makes probe outcomes
  // order-independent.
  CounterRng reference(0xabcULL);
  std::vector<std::uint64_t> expected;
  for (int i = 0; i < 10; ++i) expected.push_back(reference.next_u64());

  CounterRng replay(0xabcULL);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(replay.next_u64(), expected[static_cast<std::size_t>(i)]);
}

TEST(CounterRng, SharesDistributionHelpersWithRng) {
  CounterRng r(0x1234ULL);
  for (int i = 0; i < 1000; ++i) {
    double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
    EXPECT_GE(r.exponential(2.0), 0.0);
    EXPECT_GE(r.pareto(3.0, 1.5), 3.0);
  }
  int hits = 0;
  const int n = 100000;
  CounterRng c(0x5678ULL);
  for (int i = 0; i < n; ++i) {
    if (c.chance(0.25)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.25, 0.01);
}

TEST(CounterRng, UniformU32RangeUnbiased) {
  CounterRng r(7);
  std::vector<int> counts(8, 0);
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[r.uniform_u32(8)];
  for (int c : counts) EXPECT_NEAR(c, n / 8, n / 8 * 0.1);
}

TEST(MixKey, OrderAndArityMatter) {
  EXPECT_NE(mix_key(1, 2), mix_key(2, 1));
  EXPECT_NE(mix_key(1, 2, 3), mix_key(3, 2, 1));
  EXPECT_NE(mix_key(1, 2, 3), mix_key(1, 2, 3, 0));
  EXPECT_EQ(mix_key(1, 2, 3, 4), mix_key(1, 2, 3, 4));
}

// ---------------------------------------------------------------------------
// RunningStat
// ---------------------------------------------------------------------------

TEST(RunningStat, Moments) {
  RunningStat s;
  for (double v : {1.0, 2.0, 3.0, 4.0}) s.record(v);
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 1.25, 1e-9);
}

TEST(RunningStat, MergeEqualsCombined) {
  RunningStat a, b, all;
  Rng r(11);
  for (int i = 0; i < 1000; ++i) {
    double v = r.normal(5, 3);
    (i % 2 ? a : b).record(v);
    all.record(v);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.stddev(), all.stddev(), 1e-9);
}

TEST(FormatHelpers, Latency) {
  EXPECT_EQ(format_latency_ns(500), "500ns");
  EXPECT_EQ(format_latency_ns(216'000), "216us");
  EXPECT_EQ(format_latency_ns(1'340'000), "1.34ms");
  EXPECT_EQ(format_latency_ns(3'000'000'000), "3.00s");
}

// ---------------------------------------------------------------------------
// XML
// ---------------------------------------------------------------------------

TEST(Xml, EscapeRoundTrip) {
  std::string nasty = "a<b>&\"c'd";
  EXPECT_EQ(xml::unescape(xml::escape(nasty)), nasty);
}

TEST(Xml, WriterBasicShape) {
  xml::Writer w;
  w.open("Root").attr("x", std::int64_t{5});
  w.open("Child").attr("name", "a&b").close();
  w.leaf("Note", "hello");
  w.close();
  std::string doc = w.str();
  EXPECT_NE(doc.find("<Root x=\"5\">"), std::string::npos);
  EXPECT_NE(doc.find("name=\"a&amp;b\""), std::string::npos);
  EXPECT_NE(doc.find("<Note>hello</Note>"), std::string::npos);
}

TEST(Xml, WriterUnclosedThrows) {
  xml::Writer w;
  w.open("Root");
  EXPECT_THROW((void)w.str(), std::logic_error);
}

TEST(Xml, ParseRoundTrip) {
  xml::Writer w;
  w.open("Pinglist").attr("server", "srv-1").attr("count", std::int64_t{3});
  w.open("Target").attr("ip", "10.0.0.1").attr("weight", 2.5).close();
  w.open("Target").attr("ip", "10.0.0.2").close();
  w.close();
  auto root = xml::parse(w.str());
  EXPECT_EQ(root->name, "Pinglist");
  EXPECT_EQ(root->attr_or("server", ""), "srv-1");
  EXPECT_EQ(root->attr_int("count", -1), 3);
  auto targets = root->children_named("Target");
  ASSERT_EQ(targets.size(), 2u);
  EXPECT_EQ(targets[0]->attr_or("ip", ""), "10.0.0.1");
  EXPECT_DOUBLE_EQ(targets[0]->attr_double("weight", 0), 2.5);
  EXPECT_EQ(targets[1]->attr_or("ip", ""), "10.0.0.2");
}

TEST(Xml, ParseTextContent) {
  auto root = xml::parse("<a><b>hello &amp; goodbye</b></a>");
  ASSERT_NE(root->child("b"), nullptr);
  EXPECT_EQ(root->child("b")->text, "hello & goodbye");
}

TEST(Xml, ParseSkipsCommentsAndProlog) {
  auto root = xml::parse(
      "<?xml version=\"1.0\"?>\n<!-- hi -->\n<a><!-- inner --><b/></a>");
  EXPECT_EQ(root->name, "a");
  EXPECT_NE(root->child("b"), nullptr);
}

TEST(Xml, ParseMalformedThrows) {
  EXPECT_THROW(xml::parse("<a><b></a>"), std::runtime_error);       // mismatched
  EXPECT_THROW(xml::parse("<a"), std::runtime_error);               // truncated
  EXPECT_THROW(xml::parse("<a></a><b></b>"), std::runtime_error);   // two roots
  EXPECT_THROW(xml::parse("<a x=5></a>"), std::runtime_error);      // unquoted attr
}

// ---------------------------------------------------------------------------
// CSV
// ---------------------------------------------------------------------------

TEST(Csv, SimpleRow) {
  EXPECT_EQ(csv::encode_row({"a", "b", "c"}), "a,b,c");
}

TEST(Csv, QuotingRoundTrip) {
  std::vector<std::string> fields = {"plain", "with,comma", "with\"quote", "multi\nline", ""};
  std::string encoded = csv::encode_row(fields) + "\n";
  auto rows = csv::parse(encoded);
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0], fields);
}

TEST(Csv, MultipleRowsWithCrLf) {
  auto rows = csv::parse("a,b\r\nc,d\r\n");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

TEST(Csv, LastRowWithoutNewline) {
  auto rows = csv::parse("a,b\nc,d");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[1], (std::vector<std::string>{"c", "d"}));
}

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(Types, IpAddrFormatting) {
  EXPECT_EQ(IpAddr(10, 1, 2, 3).str(), "10.1.2.3");
  EXPECT_EQ(IpAddr(0).str(), "0.0.0.0");
  EXPECT_EQ(IpAddr(0xffffffffu).str(), "255.255.255.255");
}

TEST(Types, StrongIdsCompare) {
  ServerId a{1}, b{2};
  EXPECT_LT(a, b);
  EXPECT_NE(a, b);
  EXPECT_FALSE(ServerId{}.valid());
  EXPECT_TRUE(a.valid());
}

TEST(Types, TimeHelpers) {
  EXPECT_EQ(millis(3), 3'000'000);
  EXPECT_EQ(seconds(2), 2'000'000'000);
  EXPECT_DOUBLE_EQ(to_micros(micros(7)), 7.0);
  EXPECT_DOUBLE_EQ(to_seconds(minutes(1)), 60.0);
}

// ---------------------------------------------------------------------------
// ascii_chart
// ---------------------------------------------------------------------------

TEST(AsciiChart, LinearBarsScaleWithValues) {
  std::string chart = ascii_chart({{"a", 10.0}, {"b", 5.0}, {"c", 0.0}},
                                  AsciiChartOptions{.width = 10});
  // 'a' has the full bar, 'b' half, 'c' none.
  EXPECT_NE(chart.find("a |##########"), std::string::npos);
  EXPECT_NE(chart.find("b |#####"), std::string::npos);
  EXPECT_NE(chart.find("c |          "), std::string::npos);
}

TEST(AsciiChart, LogScaleSeparatesDecades) {
  std::string chart = ascii_chart({{"base", 1e-5}, {"incident", 1e-3}},
                                  AsciiChartOptions{.width = 20, .log_scale = true});
  auto count_hashes = [&](const std::string& label) {
    auto pos = chart.find(label);
    int n = 0;
    for (std::size_t i = pos; i < chart.size() && chart[i] != '\n'; ++i) {
      if (chart[i] == '#') ++n;
    }
    return n;
  };
  EXPECT_GT(count_hashes("incident"), count_hashes("base"));
  EXPECT_GT(count_hashes("base"), 0);  // log scale keeps small values visible
}

TEST(AsciiChart, EmptySeries) { EXPECT_EQ(ascii_chart({}), ""); }

// ---------------------------------------------------------------------------
// Log
// ---------------------------------------------------------------------------

TEST(Log, SinkCapturesAndLevelFilters) {
  std::vector<std::string> captured;
  Log::set_sink([&](LogLevel level, std::string_view component, std::string_view msg) {
    captured.push_back(std::string(log_level_name(level)) + "/" + std::string(component) +
                       "/" + std::string(msg));
  });
  Log::set_min_level(LogLevel::kWarn);
  Log::info("agent", "ignored");
  Log::warn("agent", "kept");
  Log::error("dsa", "also kept");
  Log::set_sink(nullptr);
  Log::set_min_level(LogLevel::kInfo);
  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0], "WARN/agent/kept");
  EXPECT_EQ(captured[1], "ERROR/dsa/also kept");
}

// ---------------------------------------------------------------------------
// EventScheduler
// ---------------------------------------------------------------------------

TEST(EventScheduler, FiresInTimeOrder) {
  EventScheduler sched;
  std::vector<int> order;
  sched.schedule_at(seconds(3), [&](SimTime) { order.push_back(3); });
  sched.schedule_at(seconds(1), [&](SimTime) { order.push_back(1); });
  sched.schedule_at(seconds(2), [&](SimTime) { order.push_back(2); });
  sched.run_until(seconds(10));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sched.now(), seconds(10));
}

TEST(EventScheduler, StableOrderAtSameInstant) {
  EventScheduler sched;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sched.schedule_at(seconds(1), [&order, i](SimTime) { order.push_back(i); });
  }
  sched.run_until(seconds(2));
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventScheduler, RecurringUntilCancelled) {
  EventScheduler sched;
  int fires = 0;
  sched.schedule_every(seconds(1), [&](SimTime) { return ++fires < 4; });
  sched.run_until(seconds(100));
  EXPECT_EQ(fires, 4);
}

TEST(EventScheduler, RecurringSeesAdvancingClock) {
  EventScheduler sched;
  std::vector<SimTime> times;
  sched.schedule_every(seconds(2), [&](SimTime now) {
    times.push_back(now);
    return times.size() < 3;
  });
  sched.run_until(seconds(10));
  EXPECT_EQ(times, (std::vector<SimTime>{seconds(2), seconds(4), seconds(6)}));
}

TEST(EventScheduler, PastSchedulingThrows) {
  EventScheduler sched;
  sched.run_until(seconds(5));
  EXPECT_THROW(sched.schedule_at(seconds(1), [](SimTime) {}), std::invalid_argument);
}

TEST(EventScheduler, EventsMayScheduleEvents) {
  EventScheduler sched;
  int count = 0;
  sched.schedule_at(seconds(1), [&](SimTime now) {
    ++count;
    sched.schedule_at(now + seconds(1), [&](SimTime) { ++count; });
  });
  sched.run_until(seconds(5));
  EXPECT_EQ(count, 2);
}

}  // namespace
}  // namespace pingmesh
