#include "agent/counters.h"

namespace pingmesh::agent {

PerfCounters::PerfCounters(SimTime window_start) : window_start_(window_start) {}

CounterSnapshot PerfCounters::peek(SimTime now) const {
  return CounterSnapshot{tally_.counts,         window_start_,         now,
                         tally_.latency.p50(), tally_.latency.p99(), tally_.latency};
}

CounterSnapshot PerfCounters::collect(SimTime now) {
  CounterSnapshot s = peek(now);
  tally_.clear();
  window_start_ = now;
  return s;
}

}  // namespace pingmesh::agent
