#include "analysis/droprate.h"

namespace pingmesh::analysis {

DropEstimate estimate_drop_rate(const std::vector<agent::LatencyRecord>& records) {
  DropEstimate e;
  for (const agent::LatencyRecord& r : records) e.add(r.success, r.rtt);
  return e;
}

std::map<PairKey, PairStats> per_pair_stats(const std::vector<agent::LatencyRecord>& records) {
  std::map<PairKey, PairStats> out;
  for (const agent::LatencyRecord& r : records) {
    out[PairKey{r.src_ip, r.dst_ip}].add(r.success, r.rtt);
  }
  return out;
}

}  // namespace pingmesh::analysis
