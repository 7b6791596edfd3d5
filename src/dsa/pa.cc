#include "dsa/pa.h"

#include "common/stats.h"

namespace pingmesh::dsa {

int evaluate_pa_alerts(Database& db, const topo::Topology& topo,
                       const AlertThresholds& thresholds, SimTime since, SimTime now) {
  int fired = 0;
  const std::string rule = "pa:drop_rate>" + format_rate(thresholds.drop_rate);
  for (const PaCounterRow& row : db.pa_counters) {
    if (row.time <= since || row.time > now) continue;
    if (row.probes < thresholds.min_probes) continue;
    std::string scope = "pa pod " + (row.pod.value < topo.pods().size()
                                         ? topo.sw(topo.pod(row.pod).tor).name
                                         : "#" + std::to_string(row.pod.value));
    // The PA path alerts on drop rate only: its pod-level percentiles are
    // noisy against a 5 ms threshold (one host stall skews a whole pod).
    // Precise latency alerting belongs to the Cosmos/SCOPE path.
    // A 5-minute pod window holds only hundreds of probes; one retransmit
    // signature breaches 1e-3 by itself. Require a few before paging.
    if (row.drop_signatures >= 3 && row.drop_rate > thresholds.drop_rate) {
      // Dedup through the open-alert registry: a fault persisting across
      // many 5-min windows appends one AlertRow, not one per window.
      if (!db.open_alert(scope, rule, now)) continue;
      AlertRow a;
      a.time = now;
      a.severity = AlertSeverity::kCritical;
      a.rule = rule;
      a.scope = scope;
      a.value = row.drop_rate;
      a.message = "PA drop rate " + format_rate(row.drop_rate) + " exceeds SLA";
      db.alerts.push_back(std::move(a));
      ++fired;
    } else {
      // A trusted clean window clears the condition; the next breach may
      // page again.
      db.close_alert(scope, rule);
    }
  }
  return fired;
}

void PerfcounterAggregator::collect(ServerId server, const agent::CounterSnapshot& s) {
  ++collected_;
  PodId pod = topo_->server(server).pod;
  PodAcc& acc = current_[pod.value];
  acc.counts.merge(s);
  acc.p50_weighted += static_cast<double>(s.p50_ns) * static_cast<double>(s.successes);
  acc.p99_weighted += static_cast<double>(s.p99_ns) * static_cast<double>(s.successes);
  // Live snapshots carry the window's latency sketch: merging them yields
  // true pod-level percentiles (O(1) merge, bounded relative error).
  if (s.latency.count() > 0 && acc.merged.mergeable_with(s.latency)) {
    acc.merged.merge(s.latency);
  }
}

void PerfcounterAggregator::flush(SimTime now) {
  for (const auto& [pod, acc] : current_) {
    if (acc.counts.probes == 0) continue;
    PaCounterRow row;
    row.time = now;
    row.pod = PodId{pod};
    row.probes = acc.counts.probes;
    row.drop_signatures = acc.counts.drop_signatures();
    row.drop_rate = acc.counts.drop_rate();
    if (acc.merged.count() > 0) {
      // Sketch-merged percentiles: exact aggregation up to the sketch's
      // documented relative error.
      row.p50_ns = acc.merged.p50();
      row.p99_ns = acc.merged.p99();
    } else if (acc.counts.successes > 0) {
      // Snapshots built from bare counters (no sketch): fall back to the
      // historical probe-weighted approximation.
      row.p50_ns = static_cast<std::int64_t>(acc.p50_weighted /
                                             static_cast<double>(acc.counts.successes));
      row.p99_ns = static_cast<std::int64_t>(acc.p99_weighted /
                                             static_cast<double>(acc.counts.successes));
    }
    db_->pa_counters.push_back(row);
  }
  current_.clear();
}

}  // namespace pingmesh::dsa
