// The paper's per-window probe tally and the agent-local performance
// counters built on it (paper §3.5): "the Pingmesh Agent performs local
// calculation on the latency data and produces a set of performance
// counters including the packet drop rate, the network latency at 50th the
// 99th percentile". These are the counters the Autopilot Perfcounter
// Aggregator collects on its faster 5-minute pipeline.
//
// ProbeCounts / ProbeTally are the one §4.2 tally every aggregation uses:
// the agent's window counters, SCOPE's GROUP BY aggregator, streaming
// sub-windows, rollup cells and the offline drop-rate analyses.
#pragma once

#include <cstdint>

#include "common/types.h"
#include "streaming/sketch.h"

namespace pingmesh::agent {

/// SYN-drop signature of a successful probe's connect RTT (paper §4.2):
/// an RTT around 3 s means the first SYN was lost (initial RTO), around
/// 9 s means two SYNs were lost (3 s + doubled 6 s). Returns 0, 1, or 2.
[[nodiscard]] constexpr int syn_drop_signature(SimTime rtt) {
  // Generous bands: the residual RTT after the retransmit wait is sub-second.
  if (rtt >= seconds(2) + millis(500) && rtt < seconds(6)) return 1;
  if (rtt >= seconds(8) && rtt < seconds(15)) return 2;
  return 0;
}

/// Probe outcome counts of one window or group. A success whose RTT carries
/// a retransmit signature counts as a drop signature, never as a latency
/// sample; a failure (connect never completed) counts in neither.
struct ProbeCounts {
  std::uint64_t probes = 0;
  std::uint64_t successes = 0;
  std::uint64_t failures = 0;   ///< connect never completed
  std::uint64_t probes_3s = 0;  ///< one-SYN-drop signatures
  std::uint64_t probes_9s = 0;  ///< two-SYN-drop signatures

  /// Count one probe; true when `rtt` is a clean latency sample. Defined
  /// here so the per-record ingest paths inline it.
  bool add(bool success, SimTime rtt) {
    ++probes;
    if (!success) {
      ++failures;
      return false;
    }
    ++successes;
    switch (syn_drop_signature(rtt)) {
      case 1:
        ++probes_3s;
        return false;
      case 2:
        ++probes_9s;
        return false;
      default:
        return true;
    }
  }

  void merge(const ProbeCounts& o) {
    probes += o.probes;
    successes += o.successes;
    failures += o.failures;
    probes_3s += o.probes_3s;
    probes_9s += o.probes_9s;
  }

  [[nodiscard]] std::uint64_t drop_signatures() const { return probes_3s + probes_9s; }
  /// The paper's drop-rate estimator:
  ///   (probes with 3s rtt + probes with 9s rtt) / total successful probes.
  /// Failures stay out of the denominator (a drop cannot be told from a
  /// dead receiver), and a 9 s probe counts once (successive drops within a
  /// connection are correlated).
  [[nodiscard]] double drop_rate() const {
    return successes ? static_cast<double>(drop_signatures()) / static_cast<double>(successes)
                     : 0.0;
  }
  /// Fraction of probes whose connect never completed (blackhole shape).
  [[nodiscard]] double failure_rate() const {
    return probes ? static_cast<double>(failures) / static_cast<double>(probes) : 0.0;
  }
};

/// Sketch geometry of every pod-pair cell: SCOPE's aggregator, streaming
/// sub-windows and rollup cells. One geometry makes batch and streaming
/// quantiles over the same records equal by construction; 2% relative
/// error keeps a streaming pair's ring near 20 KB. Rollup checkpoints
/// persist it and refuse to restore under another.
inline constexpr streaming::LatencySketch::Config kPairCellSketch{
    /*relative_error=*/0.02, /*min_value_ns=*/1'000,
    /*max_value_ns=*/16 * kNanosPerSecond};

/// ProbeCounts plus a sketch of the clean RTTs.
struct ProbeTally {
  ProbeCounts counts;
  streaming::LatencySketch latency;

  explicit ProbeTally(const streaming::LatencySketch::Config& geometry = kPairCellSketch)
      : latency(geometry) {}

  void add(bool success, SimTime rtt) {
    if (counts.add(success, rtt)) latency.record(rtt);
  }
  void merge(const ProbeTally& o) {
    counts.merge(o.counts);
    latency.merge(o.latency);
  }
  /// Reset to empty, keeping the sketch's buckets (no allocation).
  void clear() {
    counts = ProbeCounts{};
    latency.clear();
  }
};

struct CounterSnapshot : ProbeCounts {
  SimTime window_start = 0;
  SimTime window_end = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  /// Mergeable sketch of the window's clean RTTs. Lets the Perfcounter
  /// Aggregator compute true pod-level percentiles by merging server
  /// sketches instead of probe-weighted means of server p50/p99 (empty when
  /// a snapshot was built by hand from bare counters — consumers fall back
  /// to the scalar fields then).
  streaming::LatencySketch latency;
};

/// Windowed counters; collect() returns the finished window and starts a
/// fresh one.
class PerfCounters {
 public:
  explicit PerfCounters(SimTime window_start = 0);

  /// Record one probe outcome. Only clean RTTs (no retransmit signature)
  /// enter the latency percentiles — a 3 s connect is a drop artifact, not
  /// a latency sample.
  void record_probe(bool success, SimTime rtt) { tally_.add(success, rtt); }

  [[nodiscard]] CounterSnapshot peek(SimTime now) const;
  CounterSnapshot collect(SimTime now);

  /// Approximate memory footprint (agent memory budget accounting). The
  /// sketch is fixed-size, so agent memory is bounded regardless of probe
  /// volume (§3.4.2 safety requirement).
  [[nodiscard]] std::size_t memory_bytes() const { return tally_.latency.memory_bytes(); }

 private:
  SimTime window_start_;
  /// Default sketch geometry (1% relative error, 1 us .. 60 s), shared by
  /// every agent so the PA path can merge their window sketches directly.
  ProbeTally tally_{streaming::LatencySketch::Config{}};
};

}  // namespace pingmesh::agent
