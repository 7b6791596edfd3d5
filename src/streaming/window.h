// WindowedAggregator — per-(src-pod, dst-pod) sliding-window latency/drop
// statistics with seconds-level freshness.
//
// The streaming pipeline's stateful core: each pod pair holds a ring of N
// sub-windows (width W), each carrying a ProbeTally — the §4.2 counters plus
// a LatencySketch of the clean connect RTTs in the pod-pair cell geometry.
// Records are bucketed by their *measurement* timestamp (not arrival time),
// so a window's content is exactly the record set the batch SCOPE job scans
// for the same interval; with the same tally and sketch geometry, the
// streaming-vs-batch cross-validation test asserts equal counters and equal
// percentiles. Late arrivals within the
// retained horizon land in the right sub-window; arrivals older than the
// horizon are counted in `late_dropped()` and discarded.
//
// Memory/allocation contract: sub-window sketches are built once when a pair
// first appears (warm-up); advancing the ring clears a sub-window in place.
// After every active pair has been seen, ingest() allocates nothing.
//
// Threading: driver-thread only, like every DSA-side component (records
// arrive through the uploader tap, which runs in the serial drain phase of
// the fleet tick — see DESIGN.md §7).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <unordered_map>
#include <vector>

#include "agent/counters.h"
#include "agent/record.h"
#include "common/types.h"
#include "streaming/sketch.h"
#include "topology/topology.h"

namespace pingmesh::streaming {

/// Merged statistics of one pod pair over a queried interval.
struct WindowStats : agent::ProbeCounts {
  SimTime window_start = 0;
  SimTime window_end = 0;
  std::int64_t p50_ns = 0;
  std::int64_t p99_ns = 0;
  std::int64_t p999_ns = 0;
};

class WindowedAggregator {
 public:
  struct Config {
    SimTime sub_window = seconds(10);  ///< ring slot width W
    int sub_window_count = 6;          ///< N slots; horizon = N * W
  };

  /// One pair as for_each_live_pair() presents it: the §4.2 counters summed
  /// over the live sub-windows, the lifetime last success, and the live
  /// sub-windows' latency sketches, read in place. Valid only for the
  /// duration of the visitor call.
  struct LivePair {
    PodId src_pod;
    PodId dst_pod;
    agent::ProbeCounts counts;
    /// Measurement time of the pair's last success over its whole lifetime
    /// (silent-pair detection); nullopt if it never had one.
    std::optional<SimTime> last_success;
    std::span<const LatencySketch* const> sketches;  ///< the non-empty ones

    /// Median of the live window, equal to query()'s p50_ns, computed from
    /// the sub-window sketches without merging them.
    [[nodiscard]] std::int64_t p50() const {
      return LatencySketch::union_quantile(sketches, 0.5);
    }
  };

  WindowedAggregator(const topo::Topology& topo, Config cfg);

  /// Ingest one record, keyed to the sub-window of r.timestamp. Records
  /// whose src or dst IP is not a known server are skipped (mirrors the
  /// batch pod-pair job's filter).
  void ingest(const agent::LatencyRecord& r);

  /// Merged stats over the N live sub-windows as of `now` (the interval
  /// (floor(now/W)+1-N)*W .. (floor(now/W)+1)*W). nullopt for unseen pairs.
  [[nodiscard]] std::optional<WindowStats> query(PodId src, PodId dst, SimTime now) const;

  /// Merged stats over [from, to) — bounds are rounded outward to sub-window
  /// boundaries. Only sub-windows still retained contribute; nullopt for
  /// unseen pairs.
  [[nodiscard]] std::optional<WindowStats> query_range(PodId src, PodId dst, SimTime from,
                                                       SimTime to) const;

  /// Visit every pair with probes in the live horizon as of `now` (the
  /// interval query() covers), in (src, dst) order for deterministic
  /// iteration. Reads the ring in place: no copy, no merged sketch, no sort.
  /// The visitor must not query this aggregator (the LivePair shares its
  /// scratch).
  template <typename Visit>
  void for_each_live_pair(SimTime now, Visit&& visit) const {
    auto [from, to] = live_range(now);
    LivePair live;
    for (const auto& [k, pair] : order_) {
      if (!read_live(*pair, from, to, live)) continue;
      live.src_pod = PodId{static_cast<std::uint32_t>(k >> 32)};
      live.dst_pod = PodId{static_cast<std::uint32_t>(k & 0xffffffffu)};
      visit(static_cast<const LivePair&>(live));
    }
  }

  [[nodiscard]] const Config& config() const { return cfg_; }
  [[nodiscard]] SimTime horizon() const {
    return cfg_.sub_window * cfg_.sub_window_count;
  }
  [[nodiscard]] std::size_t pair_count() const { return pairs_.size(); }
  [[nodiscard]] std::uint64_t records_ingested() const { return ingested_; }
  [[nodiscard]] std::uint64_t records_skipped() const { return skipped_; }
  [[nodiscard]] std::uint64_t late_dropped() const { return late_dropped_; }
  /// Sub-windows whose contents aged out of the horizon (slot recycled).
  [[nodiscard]] std::uint64_t window_expiries() const { return expiries_; }
  [[nodiscard]] std::size_t memory_bytes() const;

 private:
  static constexpr SimTime kUnset = std::numeric_limits<SimTime>::min();

  struct SubWindow {
    SimTime start = kUnset;
    agent::ProbeTally tally;
  };

  struct PairState {
    std::vector<SubWindow> ring;
    SimTime last_success_ts = kUnset;
  };

  static std::uint64_t key(PodId src, PodId dst) {
    return (static_cast<std::uint64_t>(src.value) << 32) | dst.value;
  }
  [[nodiscard]] const PairState* find(PodId src, PodId dst) const;
  /// The live interval [from, to) as of `now`: N sub-windows ending with the
  /// one holding `now`.
  [[nodiscard]] std::pair<SimTime, SimTime> live_range(SimTime now) const;
  /// Sum the counters of p's sub-windows starting in [from, to) into `out`
  /// and point out.sketches at their non-empty sketches. False when no
  /// probe lands in the range.
  bool read_live(const PairState& p, SimTime from, SimTime to, LivePair& out) const;
  [[nodiscard]] WindowStats merge_range(const PairState& p, SimTime from, SimTime to) const;

  const topo::Topology* topo_;
  Config cfg_;
  std::unordered_map<std::uint64_t, std::unique_ptr<PairState>> pairs_;
  /// The same pairs sorted by key, i.e. by (src, dst): visiting order.
  std::vector<std::pair<std::uint64_t, const PairState*>> order_;
  /// Sketch pointers of the range being read (driver-thread only, like the
  /// rest); sized once to the ring length.
  mutable std::vector<const LatencySketch*> parts_;
  std::uint64_t ingested_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t late_dropped_ = 0;
  std::uint64_t expiries_ = 0;
};

}  // namespace pingmesh::streaming
