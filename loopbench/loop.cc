// The loop phase: the medium two-DC fleet driven through the whole
// measurement loop, in one of two modes.
//
//   batch   agents -> netsim -> uploader -> Cosmos -> SCOPE jobs + PA
//           (the paper's batch path; streaming, rollup and heal off)
//   online  the same fleet and seed plus the streaming pipeline, a
//           RollupStore tap and an attached HealingLoop, with a ToR
//           black-hole and a spine silent drop planted at fixed times
//
// An untraced run times the workload's mode at 4 workers with
// PingmeshSimulation::run_for and reports end-to-end numbers. A traced run
// traces both modes, one sim-hour at 1 and at 4 worker threads each, so
// every workload reports every per-layer metric. It first runs one
// untraced 1-worker reference hour with
// run_for, timing the rollup tap and the heal tick through the
// simulation's own hooks. They then replace run_for with PhaseDriver,
// which advances the same simulation through its public functions — one
// phase at a time, in the scheduler's exact event order — and times every
// phase. The phase-driven hours must reproduce the reference digest byte
// for byte (and the 1-worker digest must equal the 4-worker one), so the
// per-layer numbers describe the same computation the end-to-end numbers
// do. PhaseDriver restates the simulation's private phase bodies; README.md
// lists the program code that restatement bypasses.
#include <memory>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/thread_pool.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/jobs.h"
#include "dsa/scan_cache.h"
#include "heal/loop.h"
#include "serve/rollup.h"
#include "util.h"

namespace loopbench {
namespace {

using namespace pingmesh;  // NOLINT(google-build-using-namespace)

/// Warm-up: past the first pinglist fetch (first agent tick), the 10-min
/// ingestion delay and the first 10-min SCOPE job (window [0, 10 min)
/// fires at 20 min). Each timed sim-hour after it runs exactly one sla-1h
/// job and six pod-pair-10min jobs.
constexpr SimTime kWarmup = minutes(20);
constexpr SimTime kWindow = hours(1);
/// An untraced run times floor(--seconds / kSecondsPerHour) sim-hours at 4
/// workers (at least one). On a 4-vCPU x86 VM a batch sim-hour takes about
/// 4-5 s and an online one 10-14 s, so the online divisor buys two hours at
/// the declared --seconds: one online hour drifts with the host by up to
/// 15%. records_per_s_4w is the window's total records over its total wall
/// time. The 1-worker rate is a traced-run metric only: on a shared VM a
/// single thread's speed drifts by 25% between runs, more than any bound
/// the benchmark could keep.
constexpr int kBatchSecondsPerHour = 4;
constexpr int kOnlineSecondsPerHour = 8;
/// Set-ups timed per untraced run (at 4 workers); the loop phase's share
/// of setup_s is their median.
constexpr int kSetups = 3;

/// The online mode's planted faults, inside the timed window.
constexpr std::size_t kBlackholePod = 7;
constexpr std::size_t kDropSpine = 1;
constexpr SimTime kBlackholeStart = minutes(30);
constexpr SimTime kDropStart = minutes(45);
constexpr SimTime kFaultEnd = minutes(75);

core::SimulationConfig loop_config(std::uint64_t seed, bool online, int workers) {
  core::SimulationConfig cfg = core::default_config(seed);
  cfg.worker_threads = workers;
  if (online) {
    cfg.streaming.enabled = true;
    // default_config probes each pair every 2 minutes and uploads once a
    // minute, so with the detector's 30 s default nearly every pair looks
    // silent between probe rounds (about 1200 spurious alerts per hour).
    // A pair is silent once it misses two probe rounds.
    cfg.streaming.detector.silent_after = minutes(4);
  }
  return cfg;
}

/// A RecordTap wrapper that times the wrapped consumer.
class TimedTap final : public dsa::RecordTap {
 public:
  explicit TimedTap(dsa::RecordTap* inner) : inner_(inner) {}
  void on_records(const agent::RecordColumns& batch, SimTime now) override {
    const std::int64_t t0 = now_ns();
    inner_->on_records(batch, now);
    ns += now_ns() - t0;
    records += batch.size();
  }
  std::int64_t ns = 0;
  std::uint64_t records = 0;

 private:
  dsa::RecordTap* inner_;
};

/// Wall time a run_for run spends in the online consumers it reaches
/// through the simulation's own hooks.
struct HookTimes {
  explicit HookTimes(dsa::RecordTap* rollup) : rollup_tap(rollup) {}
  TimedTap rollup_tap;
  std::int64_t heal_ns = 0;
};

/// One simulation plus the online mode's consumers.
struct Rig {
  std::unique_ptr<core::PingmeshSimulation> sim;
  std::unique_ptr<serve::RollupStore> rollup;  // online mode only
  std::unique_ptr<heal::HealingLoop> healer;   // online mode only
  std::unique_ptr<HookTimes> hooks;            // Wiring::kTimedHooks only
  SwitchId tor;                                // planted black-hole
  SwitchId spine;                              // planted silent drop
};

/// How the online mode's consumers reach the simulation.
enum class Wiring {
  kAttach,      // add_record_tap + HealingLoop::attach
  kTimedHooks,  // the same hooks, with the rollup tap and the heal tick timed
  kDriver,      // not at all: PhaseDriver wires them itself
};

Rig make_rig(std::uint64_t seed, bool online, int workers, Wiring wiring) {
  Rig rig;
  rig.sim = std::make_unique<core::PingmeshSimulation>(loop_config(seed, online, workers));
  if (!online) return rig;
  core::PingmeshSimulation& sim = *rig.sim;
  const topo::Topology& topo = sim.topology();
  rig.rollup = std::make_unique<serve::RollupStore>(topo, &sim.services(), serve::RollupConfig{});
  rig.healer = std::make_unique<heal::HealingLoop>(sim);
  if (wiring == Wiring::kAttach) {
    sim.add_record_tap(rig.rollup.get());
    rig.healer->attach();
  } else if (wiring == Wiring::kTimedHooks) {
    rig.hooks = std::make_unique<HookTimes>(rig.rollup.get());
    sim.add_record_tap(&rig.hooks->rollup_tap);
    // What HealingLoop::attach() schedules, with the tick timed.
    HookTimes* hooks = rig.hooks.get();
    heal::HealingLoop* healer = rig.healer.get();
    sim.scheduler().schedule_every(healer->config().poll_period, [hooks, healer](SimTime now) {
      const std::int64_t t0 = now_ns();
      healer->tick(now);
      hooks->heal_ns += now_ns() - t0;
      return true;
    });
  }
  std::vector<SwitchId> spines;
  for (const topo::Switch& sw : topo.switches()) {
    if (sw.kind == topo::SwitchKind::kSpine) spines.push_back(sw.id);
  }
  rig.tor = topo.pods().at(kBlackholePod).tor;
  rig.spine = spines.at(kDropSpine);
  sim.faults().add_blackhole(rig.tor, netsim::BlackholeMode::kSrcDstPair, 0.5,
                             kBlackholeStart, kFaultEnd, /*salt=*/seed);
  sim.faults().add_silent_random_drop(rig.spine, 0.12, kDropStart, kFaultEnd);
  return rig;
}

const dsa::CosmosStream& latency_stream(core::PingmeshSimulation& sim) {
  return sim.cosmos().stream(dsa::kLatencyStream);
}

/// Digest of everything the loop produced: the retained Cosmos latency
/// stream (extent metadata and payload checksums), the SLA, pod-pair and
/// alert tables, and for the online mode the rollup store, the incident log
/// and the repair history.
std::uint64_t loop_digest(Rig& rig) {
  core::PingmeshSimulation& sim = *rig.sim;
  Digest d;
  const dsa::CosmosStream& s = latency_stream(sim);
  d.u64(s.appended_records_total());
  d.u64(s.expired_records_total());
  for (const dsa::Extent& e : s.extents()) {
    d.u64(e.id);
    d.i64(e.first_ts);
    d.i64(e.last_ts);
    d.i64(e.appended_at);
    d.u64(e.record_count);
    d.u64(e.checksum);
    d.u64(static_cast<std::uint64_t>(e.encoding));
  }
  for (const dsa::SlaRow& r : sim.db().sla_rows) {
    d.i64(r.window_start);
    d.i64(r.window_end);
    d.u64(static_cast<std::uint64_t>(r.scope));
    d.u64(r.scope_id);
    d.u64(r.probes);
    d.u64(r.successes);
    d.u64(r.failures);
    d.u64(r.drop_signatures);
    d.i64(r.p50_ns);
    d.i64(r.p99_ns);
  }
  for (const dsa::PodPairStatRow& r : sim.db().pod_pair_stats) {
    d.i64(r.window_start);
    d.u64(r.src_pod.value);
    d.u64(r.dst_pod.value);
    d.u64(r.probes);
    d.u64(r.failures);
    d.i64(r.p99_ns);
  }
  for (const dsa::AlertRow& a : sim.db().alerts) {
    d.i64(a.time);
    d.bytes(a.rule);
    d.bytes(a.scope);
    d.f64(a.value);
  }
  if (rig.rollup) d.u64(rig.rollup->digest());
  if (rig.healer) {
    for (const heal::Incident& inc : rig.healer->incidents()) d.bytes(inc.to_line());
  }
  for (const autopilot::RepairRecord& r : sim.repair().history()) {
    d.i64(r.time);
    d.u64(r.sw.value);
    d.u64(static_cast<std::uint64_t>(r.action));
    d.u64(r.executed ? 1 : 0);
  }
  return d.value();
}

std::uint64_t job_runs(core::PingmeshSimulation& sim, const std::string& name) {
  for (const auto& j : sim.jobs().stats()) {
    if (j.name == name) return j.runs;
  }
  return 0;
}

std::uint64_t probes_launched(core::PingmeshSimulation& sim) {
  std::uint64_t n = 0;
  for (const topo::Server& s : sim.topology().servers()) n += sim.agent(s.id).probes_launched();
  return n;
}

/// Correctness checks on a finished loop. `tag` prefixes check names.
void verify_loop(Rig& rig, const std::string& tag, Report& report) {
  core::PingmeshSimulation& sim = *rig.sim;
  bool agent_ok = true;
  std::uint64_t uploaded = 0;
  std::uint64_t discarded = 0;
  for (const topo::Server& s : sim.topology().servers()) {
    const agent::PingmeshAgent& ag = sim.agent(s.id);
    agent_ok = agent_ok && ag.probes_launched() ==
                               ag.records_uploaded() + ag.records_discarded() +
                                   ag.buffered_records();
    uploaded += ag.records_uploaded();
    discarded += ag.records_discarded();
  }
  const dsa::CosmosStream& s = latency_stream(sim);
  report.check(tag + "agent_ledger", agent_ok && discarded == 0);
  report.check(tag + "cosmos_ledger",
               s.appended_records_total() == uploaded &&
                   s.appended_records_total() ==
                       s.total_records() + s.expired_records_total());
  report.check(tag + "decode_rows_dropped_zero", sim.decode_rows_dropped() == 0);
  if (!rig.healer) return;
  report.check(tag + "rollup_conservation", rig.rollup->check_conservation());
  // The black-hole is reloaded, the silent drop isolated, and nothing
  // else is touched (no false reloads).
  int reloads = 0;
  int rmas = 0;
  bool stray = false;
  for (const autopilot::RepairRecord& r : sim.repair().history()) {
    if (!r.executed) continue;
    if (r.action == autopilot::RepairAction::kReload && r.sw == rig.tor) {
      ++reloads;
    } else if (r.action == autopilot::RepairAction::kIsolateAndRma && r.sw == rig.spine) {
      ++rmas;
    } else {
      stray = true;
    }
  }
  report.check(tag + "heal_blackhole_reloaded", reloads == 1);
  report.check(tag + "heal_silent_drop_isolated", rmas == 1);
  report.check(tag + "heal_no_false_repairs", !stray);
}

// ---------------------------------------------------------------------------
// Traced driver
// ---------------------------------------------------------------------------

/// Wall-clock samples of one traced sim window, per layer.
struct LayerTimes {
  std::vector<double> tick_ms;      // whole agent tick
  std::vector<double> parallel_ms;  // the parallel_for (agent + netsim)
  std::vector<double> shard_ms;     // mean shard time per tick
  std::vector<double> shard_skew;   // slowest shard / mean shard per tick
  std::vector<double> fetch_ms;     // serial pinglist-fetch phase
  std::vector<double> drain_ms;     // upload drain excluding taps
  std::vector<double> pa_ms;
  std::vector<double> detector_ms;
  std::map<std::string, std::vector<double>> job_ms;
  std::int64_t probe_ns = 0;
  std::uint64_t probes = 0;
  std::int64_t streaming_ns = 0;  // online mode: the streaming tap
  std::uint64_t streaming_records = 0;
  double wall_s = 0;
};

/// Advances a simulation through its public functions instead of its
/// private scheduler callbacks, timing each phase. The event order is
/// reproduced by registering the same recurring events, in the same order,
/// on a mirror EventScheduler: the simulation's constructor registers the
/// streaming tick (when enabled), the agent tick, the PA collection and the
/// job tick, and HealingLoop::attach() registers the heal tick after them.
/// Each mirrored event first moves the simulation's virtual clock to the
/// event time (the uploader stamps appends with it). The phase bodies
/// restate PingmeshSimulation::tick_agents / collect_pa / tick_jobs; the
/// digest check against run_for catches any drift in output between the
/// two, but not in cost (README.md lists what the restatement skips).
class PhaseDriver {
 public:
  PhaseDriver(Rig& rig, int workers)
      : rig_(rig), sim_(*rig.sim), cfg_(sim_.config()), jobs_(cfg_.ingestion_delay) {
    if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
    const std::size_t shards = pool_ ? static_cast<std::size_t>(pool_->worker_count()) : 1;
    scratch_.resize(shards);
    shard_ns_.assign(shards, 0);
    shard_probe_ns_.assign(shards, 0);
    shard_probes_.assign(shards, 0);
    register_jobs();
    // The simulation's tap order: its streaming pipeline, then add_record_tap.
    if (sim_.streaming() != nullptr) {
      streaming_tap_ = std::make_unique<TimedTap>(sim_.streaming());
      fanout_.add(streaming_tap_.get());
    }
    if (rig_.rollup) fanout_.add(rig_.rollup.get());
    if (streaming_tap_ || rig_.rollup) sim_.uploader_for_test().set_tap(&fanout_);

    if (sim_.streaming() != nullptr) {
      sched_.schedule_every(cfg_.streaming.detector.eval_period, [this](SimTime now) {
        enter(now);
        const std::int64_t t0 = now_ns();
        sim_.streaming()->tick(now);
        record(times_.detector_ms, t0);
        return true;
      });
    }
    sched_.schedule_every(cfg_.agent_tick, [this](SimTime now) {
      enter(now);
      tick_agents(now);
      return true;
    });
    sched_.schedule_every(cfg_.pa_period, [this](SimTime now) {
      enter(now);
      collect_pa(now);
      return true;
    });
    sched_.schedule_every(cfg_.job_tick, [this](SimTime now) {
      enter(now);
      tick_jobs(now);
      return true;
    });
    if (rig_.healer) {
      sched_.schedule_every(rig_.healer->config().poll_period, [this](SimTime now) {
        enter(now);
        rig_.healer->tick(now);
        return true;
      });
    }
  }

  // The mirrored events and the installed tap point into this object.
  PhaseDriver(const PhaseDriver&) = delete;
  PhaseDriver& operator=(const PhaseDriver&) = delete;

  /// Run mirrored events up to `t` (inclusive), like run_until.
  void run_until(SimTime t) {
    sched_.run_until(t);
    sim_.scheduler().clock().set(t);
  }

  /// Start recording: clears samples and tap counters.
  void start_recording() {
    times_ = LayerTimes{};
    if (streaming_tap_) {
      streaming_tap_->ns = 0;
      streaming_tap_->records = 0;
    }
    recording_ = true;
  }

  /// Stop recording and return the samples.
  LayerTimes finish(double wall_s) {
    recording_ = false;
    if (streaming_tap_) {
      times_.streaming_ns = streaming_tap_->ns;
      times_.streaming_records = streaming_tap_->records;
    }
    times_.wall_s = wall_s;
    return times_;
  }

 private:
  std::int64_t streaming_tap_ns() const { return streaming_tap_ ? streaming_tap_->ns : 0; }

  void enter(SimTime now) { sim_.scheduler().clock().set(now); }

  void record(std::vector<double>& v, std::int64_t t0) {
    if (recording_) v.push_back(static_cast<double>(now_ns() - t0) / 1e6);
  }

  void register_jobs() {
    // The standard jobs, as JobManager::register_standard_jobs builds them
    // for the simulation, each wrapped in a timer.
    const dsa::CosmosStream* s = &latency_stream(sim_);
    ctx_.topo = &sim_.topology();
    ctx_.services = &sim_.services();
    ctx_.db = &sim_.db();
    // The simulation owns the scan cache mutably; it exposes it read-only.
    ctx_.scan_cache = const_cast<dsa::DecodedExtentCache*>(&sim_.scan_cache());
    const dsa::AlertThresholds thresholds = cfg_.thresholds;
    const bool server_rows = cfg_.include_server_sla_rows;
    jobs_.register_job("pod-pair-10min", minutes(10), [this, s](SimTime from, SimTime to) {
      const std::int64_t t0 = now_ns();
      dsa::run_pod_pair_job(*s, ctx_, from, to);
      record(times_.job_ms["pod-pair-10min"], t0);
    });
    jobs_.register_job("sla-1h", hours(1), [this, s, thresholds, server_rows](SimTime from,
                                                                            SimTime to) {
      const std::int64_t t0 = now_ns();
      std::size_t before = ctx_.db->sla_rows.size();
      dsa::run_sla_job(*s, ctx_, from, to, server_rows);
      std::vector<dsa::SlaRow> fresh(
          ctx_.db->sla_rows.begin() + static_cast<std::ptrdiff_t>(before),
          ctx_.db->sla_rows.end());
      dsa::evaluate_sla_alerts(ctx_, fresh, thresholds, to);
      record(times_.job_ms["sla-1h"], t0);
    });
    // First fires at 1 day + ingestion delay: never inside the timed window.
    jobs_.register_job("dc-drop-1d", days(1), [this, s](SimTime from, SimTime to) {
      dsa::run_dc_drop_job(*s, ctx_, from, to);
    });
  }

  agent::ProbeResult execute_probe(ServerId src, const agent::ProbeRequest& req,
                                   SimTime now) const {
    // The loop phase registers no VIPs, so targets resolve directly. The
    // simulation's VIP-map lookup and total_probes_ counter are skipped.
    auto dst = sim_.topology().find_server_by_ip(req.target.ip);
    if (!dst) return agent::ProbeResult{};
    netsim::ProbeSpec spec;
    if (req.target.kind == controller::ProbeKind::kTcpPayload) {
      spec.payload_bytes = static_cast<int>(req.target.payload_bytes);
    } else if (req.target.kind == controller::ProbeKind::kHttpGet) {
      spec.payload_bytes = 300;
    }
    spec.low_priority = req.target.qos == controller::QosClass::kLow;
    const netsim::ProbeOutcome out =
        rig_.sim->net().tcp_probe(src, *dst, req.src_port, req.target.port, spec, now);
    agent::ProbeResult r;
    r.success = out.success;
    r.rtt = out.rtt;
    r.payload_success = out.payload_success;
    r.payload_rtt = out.payload_rtt;
    return r;
  }

  void tick_agents(SimTime now) {
    const std::int64_t t_tick = now_ns();
    const auto& servers = sim_.topology().servers();
    netsim::SimNetwork& net = sim_.net();
    wants_fetch_.assign(servers.size(), 0);
    auto shard = [this, now, &servers, &net](int shard_index, std::size_t begin,
                                             std::size_t end) {
      const std::int64_t t0 = now_ns();
      std::int64_t probe_ns = 0;
      std::uint64_t probes = 0;
      agent::PingmeshAgent::TickActions& actions =
          scratch_[static_cast<std::size_t>(shard_index)];
      for (std::size_t i = begin; i < end; ++i) {
        const topo::Server& s = servers[i];
        if (!net.server_up(s.id, now)) continue;
        agent::PingmeshAgent& ag = sim_.agent(s.id);
        ag.tick(now, actions);
        if (actions.fetch_pinglist) wants_fetch_[i] = 1;
        for (const agent::ProbeRequest& req : actions.probes) {
          const std::int64_t p0 = now_ns();
          const agent::ProbeResult r = execute_probe(s.id, req, now);
          probe_ns += now_ns() - p0;
          ++probes;
          ag.on_probe_result(req, r, now);
        }
      }
      const auto idx = static_cast<std::size_t>(shard_index);
      shard_ns_[idx] = now_ns() - t0;
      shard_probe_ns_[idx] = probe_ns;
      shard_probes_[idx] = probes;
    };
    if (pool_) {
      pool_->parallel_for_shards(servers.size(), shard);
    } else {
      shard(0, 0, servers.size());
    }
    const std::int64_t t_parallel = now_ns();

    // Serial phase 1: pinglist fetches in server-id order. Every controller
    // replica is up in the loop phase, so the VIP always lands on a live
    // replica and the fetch is the pinglist source's answer. The SLB pick
    // and health report of PingmeshSimulation::fetch_pinglist are skipped.
    agent::PingmeshAgent::TickActions& more = scratch_[0];
    for (const topo::Server& s : servers) {
      if (wants_fetch_[s.id.value] == 0) continue;
      agent::PingmeshAgent& ag = sim_.agent(s.id);
      ag.on_pinglist(sim_.pinglist_source().fetch(s.ip), now);
      ag.tick(now, more);
      for (const agent::ProbeRequest& req : more.probes) {
        ag.on_probe_result(req, execute_probe(s.id, req, now), now);
      }
    }
    const std::int64_t t_fetch = now_ns();

    // Serial phase 2: drain deferred uploads in server-id order. The drain
    // time excludes the streaming tap (the batch mode has no taps).
    const std::int64_t taps_before = streaming_tap_ns();
    for (const topo::Server& s : servers) {
      if (!net.server_up(s.id, now)) continue;
      sim_.agent(s.id).service_uploads(now);
    }
    const std::int64_t t_end = now_ns();
    const std::int64_t taps_after = streaming_tap_ns();

    if (!recording_) return;
    times_.tick_ms.push_back(static_cast<double>(t_end - t_tick) / 1e6);
    times_.parallel_ms.push_back(static_cast<double>(t_parallel - t_tick) / 1e6);
    times_.fetch_ms.push_back(static_cast<double>(t_fetch - t_parallel) / 1e6);
    times_.drain_ms.push_back(
        static_cast<double>((t_end - t_fetch) - (taps_after - taps_before)) / 1e6);
    std::int64_t total = 0;
    std::int64_t slowest = 0;
    for (std::size_t i = 0; i < shard_ns_.size(); ++i) {
      total += shard_ns_[i];
      slowest = std::max(slowest, shard_ns_[i]);
      times_.probe_ns += shard_probe_ns_[i];
      times_.probes += shard_probes_[i];
    }
    const double mean = static_cast<double>(total) / static_cast<double>(shard_ns_.size());
    times_.shard_ms.push_back(mean / 1e6);
    times_.shard_skew.push_back(mean > 0 ? static_cast<double>(slowest) / mean : 1.0);
  }

  void collect_pa(SimTime now) {
    const std::int64_t t0 = now_ns();
    for (const topo::Server& s : sim_.topology().servers()) {
      if (!sim_.net().server_up(s.id, now)) continue;
      sim_.pa().collect(s.id, sim_.agent(s.id).collect_counters(now));
    }
    sim_.pa().flush(now);
    dsa::evaluate_pa_alerts(sim_.db(), sim_.topology(), cfg_.thresholds, last_pa_, now);
    last_pa_ = now;
    record(times_.pa_ms, t0);
  }

  void tick_jobs(SimTime now) {
    jobs_.on_tick(now);
    const SimTime horizon = now - cfg_.cosmos_retention;
    if (horizon > 0) {
      sim_.cosmos().stream(dsa::kLatencyStream).expire_before(horizon);
      ctx_.scan_cache->expire_before(horizon);
    }
  }

  Rig& rig_;
  core::PingmeshSimulation& sim_;
  const core::SimulationConfig& cfg_;
  EventScheduler sched_{0};
  dsa::JobManager jobs_;
  dsa::JobContext ctx_;
  std::unique_ptr<TimedTap> streaming_tap_;  // online mode only
  serve::RecordTapFanout fanout_;
  std::unique_ptr<ThreadPool> pool_;  // null at 1 worker
  std::vector<agent::PingmeshAgent::TickActions> scratch_;
  std::vector<std::int64_t> shard_ns_;
  std::vector<std::int64_t> shard_probe_ns_;
  std::vector<std::uint64_t> shard_probes_;
  std::vector<char> wants_fetch_;
  SimTime last_pa_ = 0;
  bool recording_ = false;
  LayerTimes times_;
};

// ---------------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------------

/// How a run advances the simulation.
enum class Drive {
  kRunFor,       // PingmeshSimulation::run_for
  kRunForTimed,  // run_for, with the online consumers' hooks timed
  kPhases,       // PhaseDriver
};

/// Outcome of the timed sim-hours at one worker count.
struct HourRun {
  double setup_s = 0;
  double wall_s = 0;          // all timed hours
  std::uint64_t records = 0;  // appended to Cosmos in the timed hours
  std::uint64_t probes = 0;   // launched in the timed window
  std::uint64_t renders = 0;  // pinglist renders over the whole run
  std::uint64_t digest = 0;
  LayerTimes layers;  // Drive::kPhases only
  // Drive::kRunForTimed only: the online consumers over the timed hours.
  std::int64_t rollup_ns = 0;
  std::uint64_t rollup_records = 0;
  std::int64_t heal_ns = 0;
  // End-of-run state read for per-layer gauges.
  double scan_hit_ratio = 0;
  double extent_bytes_per_record = 0;
  double streaming_pairs = 0;
  std::uint64_t incidents = 0;  // acted on: repaired, recovered or escalated
  std::uint64_t expired = 0;    // never corroborated, no action
  std::uint64_t reloads = 0;
  std::uint64_t rmas = 0;
};

/// Set up, warm up, and run `n_hours` timed sim-hours.
HourRun run_hours(std::uint64_t seed, bool online, int workers, Drive drive, int n_hours,
                  Report& report) {
  HourRun out;
  const bool traced = drive == Drive::kPhases;
  const std::int64_t t_setup = now_ns();
  // A phase-driven run owns its thread pool; the simulation itself stays
  // serial so no idle pool threads exist beside the driver's.
  const Wiring wiring = traced ? Wiring::kDriver
                               : (drive == Drive::kRunForTimed ? Wiring::kTimedHooks
                                                               : Wiring::kAttach);
  Rig rig = make_rig(seed, online, traced ? 1 : workers, wiring);
  core::PingmeshSimulation& sim = *rig.sim;
  std::unique_ptr<PhaseDriver> driver;
  if (traced) {
    driver = std::make_unique<PhaseDriver>(rig, workers);
    driver->run_until(kWarmup);
  } else {
    sim.run_for(kWarmup);
  }
  out.setup_s = seconds_since(t_setup);

  const std::string tag = std::string(online ? "online." : "batch.") + (traced ? "traced_" : "") +
                          std::to_string(workers) + "w.";
  // The warm-up passed the first fetch and the first 10-min job.
  bool fetched = true;
  for (const topo::Server& s : sim.topology().servers()) {
    fetched = fetched && sim.agent(s.id).pinglist_version() > 0;
  }
  // A traced run's jobs live in the driver, so alignment is checked on the
  // run_for runs, whose JobManager is the simulation's own.
  if (!traced) {
    report.check(tag + "warmup_past_first_fetch_and_job",
                 fetched && job_runs(sim, "pod-pair-10min") == 1);
  }

  const std::uint64_t probes0 = probes_launched(sim);
  const std::uint64_t hits0 = sim.scan_cache().hits();
  const std::uint64_t misses0 = sim.scan_cache().misses();
  const std::uint64_t rec0 = latency_stream(sim).appended_records_total();
  HookTimes hooks0(nullptr);
  if (rig.hooks) {
    hooks0.rollup_tap.ns = rig.hooks->rollup_tap.ns;
    hooks0.rollup_tap.records = rig.hooks->rollup_tap.records;
    hooks0.heal_ns = rig.hooks->heal_ns;
  }
  if (driver) driver->start_recording();
  bool aligned = true;
  for (int h = 0; h < n_hours; ++h) {
    const std::uint64_t pp0 = traced ? 0 : job_runs(sim, "pod-pair-10min");
    const std::uint64_t sla0 = traced ? 0 : job_runs(sim, "sla-1h");
    const std::int64_t t0 = now_ns();
    if (driver) {
      driver->run_until(kWarmup + kWindow * (h + 1));
    } else {
      sim.run_for(kWindow);
    }
    const double wall = seconds_since(t0);
    out.wall_s += wall;
    std::fprintf(stderr, "loopbench: %s%dw sim-hour %d: %.3f s\n", traced ? "traced " : "",
                 workers, h + 1, wall);
    if (!traced) {
      aligned = aligned && job_runs(sim, "sla-1h") - sla0 == 1 &&
                job_runs(sim, "pod-pair-10min") - pp0 == 6;
    }
  }
  out.records = latency_stream(sim).appended_records_total() - rec0;
  if (driver) out.layers = driver->finish(out.wall_s);
  if (rig.hooks) {
    out.rollup_ns = rig.hooks->rollup_tap.ns - hooks0.rollup_tap.ns;
    out.rollup_records = rig.hooks->rollup_tap.records - hooks0.rollup_tap.records;
    out.heal_ns = rig.hooks->heal_ns - hooks0.heal_ns;
  }
  if (!traced) report.check(tag + "each_hour_runs_one_sla_1h_and_six_10min_jobs", aligned);

  out.probes = probes_launched(sim) - probes0;
  // Pinglists render once per server at the first fetch (in the warm-up)
  // and again only when the generator's version changes.
  out.renders = sim.pinglist_source().cache().rebuilds();
  verify_loop(rig, tag, report);
  out.digest = loop_digest(rig);

  const double hits = static_cast<double>(sim.scan_cache().hits() - hits0);
  const double misses = static_cast<double>(sim.scan_cache().misses() - misses0);
  out.scan_hit_ratio = hits + misses > 0 ? hits / (hits + misses) : 0;
  const dsa::CosmosStream& s = latency_stream(sim);
  out.extent_bytes_per_record =
      s.total_records() > 0
          ? static_cast<double>(s.total_bytes()) / static_cast<double>(s.total_records())
          : 0;
  if (online) {
    out.streaming_pairs = static_cast<double>(sim.streaming()->windows().pair_count());
    // Acted-on incidents repeat exactly; an expired trigger (a transient
    // the loop deliberately left alone) depends on the seed's noise.
    for (const heal::Incident& inc : rig.healer->incidents()) {
      if (inc.state == heal::IncidentState::kExpired) {
        ++out.expired;
      } else {
        ++out.incidents;
      }
    }
    for (const autopilot::RepairRecord& r : sim.repair().history()) {
      if (!r.executed) continue;
      if (r.action == autopilot::RepairAction::kReload) ++out.reloads;
      else ++out.rmas;
    }
  }
  std::fprintf(stderr,
               "loopbench: %s%dw setup %.3f s, sim-hours %.3f s, %llu records, digest %016llx\n",
               traced ? "traced " : "", workers, out.setup_s, out.wall_s,
               static_cast<unsigned long long>(out.records),
               static_cast<unsigned long long>(out.digest));
  return out;
}

double per_record_ns(std::int64_t ns, std::uint64_t records) {
  return records > 0 ? static_cast<double>(ns) / static_cast<double>(records) : 0;
}

void report_layers(const HourRun& one, const HourRun& four, const HourRun& ref, bool online,
                   Report& report) {
  const LayerTimes& l1 = one.layers;
  const LayerTimes& l4 = four.layers;
  const std::string mode = online ? ".online" : ".batch";
  // core / common: the tick at 4 workers, in both modes.
  report.metric("core.tick_ms" + mode, median(l4.tick_ms), "ms");
  report.metric("core.serial_fraction" + mode, 1.0 - sum(l4.parallel_ms) / (l4.wall_s * 1e3),
                "ratio");
  report.metric("core.sim_hour_s.1w" + mode, l1.wall_s, "s");
  report.metric("core.sim_hour_s.4w" + mode, l4.wall_s, "s");
  report.metric("trace.overhead_ratio" + mode, l1.wall_s / ref.wall_s, "ratio");
  report.metric("core.records_per_s_1w" + mode, static_cast<double>(ref.records) / ref.wall_s,
                "1/s");
  const std::string tag = online ? "online." : "batch.";
  if (online) {
    report.metric("streaming.ingest_ns_per_record",
                  per_record_ns(l1.streaming_ns, l1.streaming_records), "ns");
    report.metric("streaming.detector_ms", sum(l1.detector_ms), "ms");
    report.metric("streaming.pairs", one.streaming_pairs, "count");
    // The rollup tap and the heal tick are timed on the run_for reference
    // hour, through the simulation's own hooks.
    report.metric("heal.tick_ms", static_cast<double>(ref.heal_ns) / 1e6, "ms");
    report.metric("heal.incidents", static_cast<double>(one.incidents), "count");
    report.metric("heal.expired_incidents", static_cast<double>(one.expired), "count");
    report.metric("autopilot.reloads", static_cast<double>(one.reloads), "count");
    report.metric("autopilot.rmas", static_cast<double>(one.rmas), "count");
    report.metric("serve.rollup_ingest_ns_per_record",
                  per_record_ns(ref.rollup_ns, ref.rollup_records), "ns");
    report.check(tag + "counts_equal_1w_4w",
                 one.incidents == four.incidents && one.expired == four.expired &&
                     one.reloads == four.reloads && one.rmas == four.rmas);
    return;
  }
  // The batch path's layers, timed where nothing else shares the tick.
  report.metric("common.shard_skew", median(l4.shard_skew), "ratio");
  report.metric("agent.shard_ms", median(l4.shard_ms), "ms");
  report.metric("agent.probes", static_cast<double>(one.probes), "count");
  report.metric("netsim.probe_ns", per_record_ns(l1.probe_ns, l1.probes), "ns");
  report.metric("controller.fetch_ms", sum(l4.fetch_ms), "ms");
  report.metric("controller.renders", static_cast<double>(one.renders), "count");
  report.metric("dsa.upload_drain_ms", sum(l4.drain_ms), "ms");
  report.metric("dsa.extent_bytes_per_record", one.extent_bytes_per_record, "B");
  auto job = [&](const char* name) {
    auto it = l1.job_ms.find(name);
    return it == l1.job_ms.end() ? 0.0 : median(it->second);
  };
  report.metric("dsa.job_ms.pod-pair-10min", job("pod-pair-10min"), "ms");
  report.metric("dsa.job_ms.sla-1h", job("sla-1h"), "ms");
  report.metric("dsa.scan_cache_hit_ratio", one.scan_hit_ratio, "ratio");
  report.metric("dsa.pa_ms", sum(l1.pa_ms), "ms");
  report.check(tag + "counts_equal_1w_4w",
               one.probes == four.probes && one.renders == four.renders &&
                   l1.probes == l4.probes);
}

}  // namespace

double run_loop(const Options& opt, bool online, Report& report) {
  if (!opt.trace) {
    const int hours =
        std::max(1, opt.seconds / (online ? kOnlineSecondsPerHour : kBatchSecondsPerHour));
    HourRun r = run_hours(opt.seed, online, 4, Drive::kRunFor, hours, report);
    report.metric("records_per_s_4w", static_cast<double>(r.records) / r.wall_s, "1/s");
    report.attempted += r.records;
    std::vector<double> setups{r.setup_s};
    while (static_cast<int>(setups.size()) < kSetups) {
      const std::int64_t t0 = now_ns();
      Rig rig = make_rig(opt.seed, online, 4, Wiring::kAttach);
      rig.sim->run_for(kWarmup);
      setups.push_back(seconds_since(t0));
    }
    return median(setups);
  }
  // Traced: a 1-worker reference hour (run_for, hooks timed), then the
  // phase-driven hour at 1 and at 4 workers. All three must produce the
  // same digest.
  const std::string tag = online ? "online." : "batch.";
  HourRun ref = run_hours(opt.seed, online, 1, Drive::kRunForTimed, 1, report);
  HourRun one = run_hours(opt.seed, online, 1, Drive::kPhases, 1, report);
  HourRun four = run_hours(opt.seed, online, 4, Drive::kPhases, 1, report);
  report.check(tag + "traced_digest_equals_run_for", one.digest == ref.digest);
  report.check(tag + "traced_digest_equal_1w_4w", one.digest == four.digest);
  report.attempted += one.records + four.records;
  report_layers(one, four, ref, online, report);
  return 0;
}

}  // namespace loopbench
