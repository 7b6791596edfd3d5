#include "streaming/window.h"

#include <algorithm>
#include <stdexcept>

#include "agent/counters.h"
#include "common/check.h"

namespace pingmesh::streaming {

WindowedAggregator::WindowedAggregator(const topo::Topology& topo, Config cfg)
    : topo_(&topo), cfg_(cfg) {
  if (cfg_.sub_window <= 0) throw std::invalid_argument("sub_window must be positive");
  if (cfg_.sub_window_count < 1 || cfg_.sub_window_count > 4096) {
    throw std::invalid_argument("sub_window_count out of range");
  }
  parts_.reserve(static_cast<std::size_t>(cfg_.sub_window_count));
}

void WindowedAggregator::ingest(const agent::LatencyRecord& r) {
  auto src = topo_->find_server_by_ip(r.src_ip);
  auto dst = topo_->find_server_by_ip(r.dst_ip);
  if (!src || !dst) {
    ++skipped_;
    return;
  }
  PodId src_pod = topo_->server(*src).pod;
  PodId dst_pod = topo_->server(*dst).pod;

  std::uint64_t k = key(src_pod, dst_pod);
  auto& slot = pairs_[k];
  if (slot == nullptr) {  // warm-up: the only allocations on the ingest path
    slot = std::make_unique<PairState>();
    slot->ring.resize(static_cast<std::size_t>(cfg_.sub_window_count));
    auto at = std::lower_bound(order_.begin(), order_.end(), k,
                               [](const auto& e, std::uint64_t v) { return e.first < v; });
    order_.insert(at, {k, slot.get()});
  }
  PairState& pair = *slot;

  SimTime ts = std::max<SimTime>(r.timestamp, 0);
  SimTime window_start = ts - ts % cfg_.sub_window;
  auto idx = static_cast<std::size_t>((ts / cfg_.sub_window) %
                                      cfg_.sub_window_count);
  PINGMESH_DCHECK(idx < pair.ring.size());
  PINGMESH_DCHECK(window_start >= 0 && window_start % cfg_.sub_window == 0);
  SubWindow& sub = pair.ring[idx];
  if (sub.start != window_start) {
    if (sub.start != kUnset && sub.start > window_start) {
      // The slot already advanced past this record's window: older than the
      // retained horizon, drop rather than pollute a newer sub-window.
      ++late_dropped_;
      return;
    }
    // Recycling a previously-filled slot is the moment its old sub-window
    // leaves the retained horizon.
    if (sub.start != kUnset) ++expiries_;
    sub.start = window_start;
    sub.tally.clear();
  }

  ++ingested_;
  if (r.success) pair.last_success_ts = std::max(pair.last_success_ts, ts);
  // Identical classification to the batch LatencyAggregator: retransmit
  // artifacts count as drop signatures, never as latency samples.
  sub.tally.add(r.success, r.rtt);
}

const WindowedAggregator::PairState* WindowedAggregator::find(PodId src, PodId dst) const {
  auto it = pairs_.find(key(src, dst));
  return it == pairs_.end() ? nullptr : it->second.get();
}

std::pair<SimTime, SimTime> WindowedAggregator::live_range(SimTime now) const {
  SimTime newest_start = now - now % cfg_.sub_window;
  return {newest_start - cfg_.sub_window * (cfg_.sub_window_count - 1),
          newest_start + cfg_.sub_window};
}

bool WindowedAggregator::read_live(const PairState& pair, SimTime from, SimTime to,
                                   LivePair& out) const {
  out.counts = agent::ProbeCounts{};
  parts_.clear();
  for (const SubWindow& sub : pair.ring) {
    if (sub.start == kUnset || sub.start < from || sub.start >= to) continue;
    // Every populated sub-window sits on a sub_window boundary; ingest
    // rounds timestamps down before writing.
    PINGMESH_DCHECK(sub.start % cfg_.sub_window == 0);
    out.counts.merge(sub.tally.counts);
    if (sub.tally.latency.count() > 0) parts_.push_back(&sub.tally.latency);
  }
  out.sketches = parts_;
  out.last_success = pair.last_success_ts == kUnset
                         ? std::nullopt
                         : std::optional<SimTime>(pair.last_success_ts);
  return out.counts.probes > 0;
}

WindowStats WindowedAggregator::merge_range(const PairState& pair, SimTime from,
                                            SimTime to) const {
  LivePair live;
  read_live(pair, from, to, live);
  WindowStats out;
  static_cast<agent::ProbeCounts&>(out) = live.counts;
  out.window_start = from;
  out.window_end = to;
  out.p50_ns = LatencySketch::union_quantile(live.sketches, 0.50);
  out.p99_ns = LatencySketch::union_quantile(live.sketches, 0.99);
  out.p999_ns = LatencySketch::union_quantile(live.sketches, 0.999);
  return out;
}

std::optional<WindowStats> WindowedAggregator::query(PodId src, PodId dst,
                                                     SimTime now) const {
  auto [from, to] = live_range(now);
  return query_range(src, dst, from, to);
}

std::optional<WindowStats> WindowedAggregator::query_range(PodId src, PodId dst,
                                                           SimTime from, SimTime to) const {
  const PairState* pair = find(src, dst);
  if (pair == nullptr) return std::nullopt;
  // Round outward to sub-window boundaries.
  from -= ((from % cfg_.sub_window) + cfg_.sub_window) % cfg_.sub_window;
  if (to % cfg_.sub_window != 0) to += cfg_.sub_window - to % cfg_.sub_window;
  return merge_range(*pair, from, to);
}

std::size_t WindowedAggregator::memory_bytes() const {
  static const std::size_t sketch_bytes = LatencySketch(agent::kPairCellSketch).memory_bytes();
  std::size_t per_pair = sizeof(PairState) +
                         static_cast<std::size_t>(cfg_.sub_window_count) *
                             (sizeof(SubWindow) + sketch_bytes);
  return sizeof(*this) + pairs_.size() * (per_pair + sizeof(order_.front()));
}

}  // namespace pingmesh::streaming
