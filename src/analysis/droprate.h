// Packet drop rate inference (paper §4.2).
//
// "Pingmesh does not directly measure packet drop rate. However, we can
// infer packet drop rate from the TCP connection setup time. ... we use the
// following heuristic to estimate packet drop rate:
//     (probes with 3s rtt + probes with 9s rtt) / total successful probes."
//
// The estimator is agent::ProbeCounts::drop_rate(); this module tallies
// offline record sets with it.
#pragma once

#include <map>
#include <vector>

#include "agent/counters.h"
#include "agent/record.h"
#include "common/types.h"

namespace pingmesh::analysis {

using DropEstimate = agent::ProbeCounts;

/// Aggregate estimate over a record set.
DropEstimate estimate_drop_rate(const std::vector<agent::LatencyRecord>& records);

/// Per source-destination pair estimates (input to black-hole detection).
struct PairKey {
  IpAddr src;
  IpAddr dst;
  auto operator<=>(const PairKey&) const = default;
};

using PairStats = agent::ProbeCounts;

std::map<PairKey, PairStats> per_pair_stats(const std::vector<agent::LatencyRecord>& records);

}  // namespace pingmesh::analysis
