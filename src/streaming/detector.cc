#include "streaming/detector.h"

#include <algorithm>

#include "common/stats.h"

namespace pingmesh::streaming {

OnlineDetector::OnlineDetector(const topo::Topology& topo, dsa::Database& db,
                               DetectorConfig cfg)
    : topo_(&topo), db_(&db), cfg_(cfg) {}

const char* OnlineDetector::rule_name(Rule r) {
  switch (r) {
    case kLatencyBoost: return "stream:latency_boost";
    case kDropSpike: return "stream:drop_spike";
    case kSilentPair: return "stream:silent_pair";
    case kFailRate: return "stream:fail_rate";
    default: return "stream:?";
  }
}

std::string OnlineDetector::pair_scope(PodId src, PodId dst) const {
  auto name = [this](PodId p) {
    return p.value < topo_->pods().size() ? topo_->sw(topo_->pod(p).tor).name
                                          : "#" + std::to_string(p.value);
  };
  return "pair " + name(src) + "->" + name(dst);
}

template <typename Message>
int OnlineDetector::step_rule(PairTrack& track, Rule rule, bool breach,
                              const WindowedAggregator::LivePair& pair,
                              dsa::AlertSeverity severity, double value, Message&& message,
                              SimTime now) {
  if (breach) {
    track.clean_streak[rule] = 0;
    if (++track.breach_streak[rule] < cfg_.open_after || track.open[rule]) return 0;
    track.open[rule] = true;
    std::string scope = pair_scope(pair.src_pod, pair.dst_pod);
    if (!db_->open_alert(scope, rule_name(rule), now)) return 0;
    dsa::AlertRow a;
    a.time = now;
    a.severity = severity;
    a.rule = rule_name(rule);
    a.scope = std::move(scope);
    a.value = value;
    a.message = message();
    db_->alerts.push_back(std::move(a));
    ++opened_;
    return 1;
  }
  track.breach_streak[rule] = 0;
  if (++track.clean_streak[rule] >= cfg_.close_after && track.open[rule]) {
    track.open[rule] = false;
    if (db_->close_alert(pair_scope(pair.src_pod, pair.dst_pod), rule_name(rule))) ++closed_;
  }
  return 0;
}

int OnlineDetector::evaluate(const WindowedAggregator& windows, SimTime now) {
  ++evaluations_;
  int fired = 0;
  windows.for_each_live_pair(now, [&](const WindowedAggregator::LivePair& pair) {
    const agent::ProbeCounts& s = pair.counts;
    if (s.probes < cfg_.min_probes) return;
    PairTrack& track = tracks_[(static_cast<std::uint64_t>(pair.src_pod.value) << 32) |
                               pair.dst_pod.value];

    // Silent pair: probes flowing, no connect landing for silent_after
    // (blackhole shape). Lifetime last-success, not the windowed success
    // count: detection must not wait for pre-fault successes to age out of
    // the ring (that alone would cost the whole horizon).
    const std::optional<SimTime>& last_ok = pair.last_success;
    bool silent = s.probes >= cfg_.silent_min_probes &&
                  (!last_ok.has_value() || now - *last_ok >= cfg_.silent_after);
    fired += step_rule(track, kSilentPair, silent, pair,
                   dsa::AlertSeverity::kCritical, s.failure_rate(), [&] {
                     return "no successful probe since " +
                            (last_ok ? std::to_string(to_seconds(*last_ok)) + "s" : "boot") +
                            " (" + std::to_string(s.probes) + " probes in live window)";
                   }, now);

    // Failure rate: the partial-blackhole shape. A corrupted entry fraction
    // below 1 kills a subset of the pod pair's server pairs deterministically
    // while the rest keep succeeding, so the pair is neither silent nor
    // spiking retransmit signatures — but its windowed connect-failure
    // fraction sits at the corrupted fraction. The absolute failure floor
    // keeps a single crashed server in a small pod below the rule; the
    // silent guard keeps total loss owned by silent_pair alone instead of
    // double-alerting the same fault under two rules.
    bool fail_rate = !silent && s.failures >= cfg_.min_failures &&
                     s.failure_rate() >= cfg_.fail_rate_threshold;
    fired += step_rule(track, kFailRate, fail_rate, pair,
                   dsa::AlertSeverity::kCritical, s.failure_rate(), [&] {
                     return "connect failure rate " + format_rate(s.failure_rate()) + " (" +
                            std::to_string(s.failures) + "/" + std::to_string(s.probes) +
                            " probes) over live window";
                   }, now);

    // Drop-signature spike (§4.2 estimator, PA-style signature floor).
    bool drop_spike = s.drop_signatures() >= cfg_.min_drop_signatures &&
                      s.drop_rate() > cfg_.drop_rate_threshold;
    fired += step_rule(track, kDropSpike, drop_spike, pair,
                   dsa::AlertSeverity::kCritical, s.drop_rate(), [&] {
                     return "drop rate " + format_rate(s.drop_rate()) + " over live window";
                   }, now);

    // Latency boost: windowed *median* vs EWMA baseline. The median, not
    // the tail — a sub-minute pair window holds tens of samples, so its P99
    // is the max sample and routine queueing spikes would page constantly.
    // Only clean samples carry latency, and only then is the p50 read.
    std::uint64_t clean = s.successes - std::min(s.successes, s.drop_signatures());
    if (clean == 0) return;
    std::int64_t p50 = pair.p50();
    if (p50 <= 0) return;
    bool boost = track.baseline_init &&
                 static_cast<double>(p50) > cfg_.latency_boost_factor * track.p50_baseline &&
                 p50 > cfg_.latency_abs_floor;
    fired += step_rule(track, kLatencyBoost, boost, pair,
                   dsa::AlertSeverity::kWarning, static_cast<double>(p50), [&] {
                     return "P50 " + format_latency_ns(p50) + " vs baseline " +
                            format_latency_ns(static_cast<std::int64_t>(track.p50_baseline));
                   }, now);
    // Baseline learns only from non-breaching windows: an incident must
    // not absorb itself into its own baseline.
    if (!boost) {
      if (!track.baseline_init) {
        track.p50_baseline = static_cast<double>(p50);
        track.baseline_init = true;
      } else {
        track.p50_baseline = cfg_.ewma_weight * static_cast<double>(p50) +
                             (1.0 - cfg_.ewma_weight) * track.p50_baseline;
      }
    }
  });
  return fired;
}

}  // namespace pingmesh::streaming
