// The query phase: the interactive serving tier under reads and writes.
// Every workload runs it, in a process of its own, on the same inputs.
//
// Set-up runs PingmeshSimulation(default_config(seed)) for an hour and a
// tick in a child process and records every batch the uploader hands its
// tap (the real record traffic, in the uploader's real batch shape). The
// child ends before anything is timed, so agents, netsim, Cosmos and the
// DSA jobs count toward neither the timings nor this process's memory.
// The timed set-up then builds a PersistentRollupStore (WAL + checkpoints
// in a CosmosStore) from the first sim-hour's batches. The timed window
// runs three threads beside each other:
//
//   reactor    one net::Reactor thread serving QueryService over loopback
//   writer     replays the next upload batches, one every seconds / kWrites
//              on a fixed wall schedule; each batch bumps the store version
//              and so invalidates the response cache
//   generator  this thread: an open-loop HTTP client at kRate requests/s
//              over a fixed heatmap / top-k / SLA path mix, timing every
//              request from the moment it was due
//
// Each response is classified from outside: a response whose ETag is new
// for its path was rendered; any other response (a cache hit or a 304) is
// a hit. Every path is requested many times between two writes, so the
// service renders each path exactly once per store version and the render
// count repeats from run to run. In the traced run the window is traced:
// its writer also applies each batch to a plain RollupStore twin (so the
// WAL's share of a write can be told apart). The traced run then climbs a
// read-only ladder of offered rates to find the highest rate the hit path
// sustains.
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "agent/record_columns.h"
#include "common/rng.h"
#include "core/scenarios.h"
#include "core/simulation.h"
#include "dsa/cosmos.h"
#include "dsa/extent_codec.h"
#include "net/http.h"
#include "net/reactor.h"
#include "net/sockaddr.h"
#include "serve/persist.h"
#include "serve/query_service.h"
#include "serve/rollup.h"
#include "topology/topology.h"
#include "util.h"

namespace loopbench {
namespace {

using namespace pingmesh;  // NOLINT(google-build-using-namespace)

constexpr SimTime kPrebuild = minutes(60);  // store contents before the window
constexpr int kWrites = 100;                // batches applied in one timed window
constexpr double kRate = 1000.0;            // offered requests/s in a timed window
constexpr int kSetups = 3;
constexpr int kCaptureWorkers = 4;  // the child's simulation, before any timing
/// Longest a write waits for the current version's renders (see run_window).
constexpr auto kRenderWait = std::chrono::seconds(2);
/// Read-only ladder of offered rates (traced run): rung n offers kLadderBase *
/// kLadderRatio^n requests/s for kStepSeconds. A rung passes if one of
/// kRungAttempts tries passes: a host stall of a few tens of ms fails a
/// single short try, a real overload fails every try. A climb starts at
/// rung 0 and stops at the first rung that fails; serve.max_qps is the
/// median over kClimbs climbs of the last passing rung's measured rate. It is
/// not an end-to-end metric: sub-second host stalls move the edge between
/// about 13k and 27k requests/s from one climb to the next on a 4-vCPU VM.
constexpr double kLadderBase = 4000;
constexpr double kLadderRatio = 1.1;
constexpr int kLadderRungs = 25;
constexpr double kStepSeconds = 0.25;
constexpr int kRungAttempts = 2;
constexpr int kClimbs = 3;
/// A rung passes when the hit p99 meets this limit, the generator keeps to
/// its schedule, and the last response lands within kBacklogSlack of the
/// rung's end (no growing backlog).
constexpr double kHitP99LimitUs = 20'000;
constexpr double kLagP99LimitUs = 5'000;
constexpr double kBacklogSlack = 0.02;

struct QueryPath {
  const char* path;
  const char* endpoint;  // heatmap | topk | sla
  bool conditional;      // dashboard poller: sends If-None-Match
};

constexpr QueryPath kPaths[] = {
    {"/query/heatmap?minutes=60", "heatmap", true},
    {"/query/topk?k=10&metric=p99&minutes=60", "topk", false},
    {"/query/sla?service=Search&minutes=60", "sla", false},
    {"/query/heatmap?minutes=10&dc=DC2", "heatmap", true},
};
constexpr std::size_t kPathCount = sizeof(kPaths) / sizeof(kPaths[0]);

/// One upload batch as the uploader handed it to its tap.
struct TappedBatch {
  agent::RecordColumns records;
  SimTime now = 0;
};

/// Child side of the capture: frames every tapped batch onto a pipe as
/// [now i64][length u64][dsa::encode_columnar block].
class PipeTap final : public dsa::RecordTap {
 public:
  explicit PipeTap(int fd) : fd_(fd) {}
  void on_records(const agent::RecordColumns& batch, SimTime now) override {
    const std::string block = dsa::encode_columnar(batch);
    const std::uint64_t length = block.size();
    write_all(&now, sizeof(now));
    write_all(&length, sizeof(length));
    write_all(block.data(), block.size());
  }

 private:
  void write_all(const void* data, std::size_t n) const {
    const char* p = static_cast<const char*>(data);
    while (n > 0) {
      const ssize_t w = ::write(fd_, p, n);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) std::_Exit(1);
      p += w;
      n -= static_cast<std::size_t>(w);
    }
  }
  int fd_;
};

/// Reads up to n bytes; returns how many arrived before end of stream.
std::size_t read_full(int fd, void* data, std::size_t n) {
  char* p = static_cast<char*>(data);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) break;
    got += static_cast<std::size_t>(r);
  }
  return got;
}

/// The uploader's tapped batches of default_config(seed) from time 0 up to
/// kPrebuild plus one agent tick, in tap order. The simulation runs in a
/// child process, which this function waits for.
std::vector<TappedBatch> capture_batches(std::uint64_t seed) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    ::close(fds[0]);
    core::SimulationConfig cfg = core::default_config(seed);
    cfg.worker_threads = kCaptureWorkers;
    core::PingmeshSimulation sim(cfg);
    PipeTap tap(fds[1]);
    sim.add_record_tap(&tap);
    sim.run_until(kPrebuild + cfg.agent_tick);
    ::close(fds[1]);
    std::_Exit(0);  // skip teardown: the parent owns everything else
  }
  ::close(fds[1]);
  std::vector<TappedBatch> out;
  bool intact = true;
  for (;;) {
    TappedBatch b;
    std::uint64_t length = 0;
    const std::size_t got = read_full(fds[0], &b.now, sizeof(b.now));
    if (got == 0) break;  // end of stream
    std::string block;
    intact = got == sizeof(b.now) && read_full(fds[0], &length, sizeof(length)) == sizeof(length);
    if (intact) {
      block.resize(length);
      intact = read_full(fds[0], block.data(), length) == length;
    }
    agent::DecodeStats stats;
    if (intact) b.records = dsa::decode_columnar(block, &stats);
    intact = intact && stats.rows_dropped == 0;
    if (!intact) break;
    out.push_back(std::move(b));
  }
  ::close(fds[0]);  // a child still writing now fails and exits
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!intact || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("capture simulation failed");
  }
  return out;
}

/// Everything set-up builds; the store is what the timed windows serve.
struct QueryRig {
  topo::Topology topo;
  topo::ServiceMap services;
  dsa::CosmosStore cosmos;
  std::unique_ptr<serve::PersistentRollupStore> store;
  /// Traced run: a plain RollupStore fed the same batches, so a write's
  /// WAL and checkpoint share is the persistent apply minus the plain one.
  std::unique_ptr<serve::RollupStore> twin;
  std::uint64_t prebuilt_records = 0;

  /// Builds the store from the batches tapped before kPrebuild.
  QueryRig(const std::vector<TappedBatch>& batches, bool with_twin)
      : topo(topo::Topology::build(core::two_dc_specs(/*medium=*/true))) {
    // Two services of ten pods each: Search in DC2, Storage in DC1.
    std::vector<ServerId> search;
    std::vector<ServerId> storage;
    for (const topo::Pod& pod : topo.pods()) {
      std::vector<ServerId>& members = topo.dc(pod.dc).name == "DC2" ? search : storage;
      if (members.size() < 200) members.insert(members.end(), pod.servers.begin(), pod.servers.end());
    }
    services.add_service("Search", search);
    services.add_service("Storage", storage);
    store = std::make_unique<serve::PersistentRollupStore>(topo, &services, serve::RollupConfig{},
                                                           cosmos);
    if (with_twin) {
      twin = std::make_unique<serve::RollupStore>(topo, &services, serve::RollupConfig{});
    }
    for (const TappedBatch& b : batches) {
      if (b.now >= kPrebuild) break;
      store->on_records(b.records, b.now);
      if (twin) twin->on_records(b.records, b.now);
      prebuilt_records += b.records.size();
    }
  }
  // The store points at topo, services and cosmos.
  QueryRig(const QueryRig&) = delete;
  QueryRig& operator=(const QueryRig&) = delete;
};

/// TCP connections this network namespace opened so far (Tcp ActiveOpens).
std::uint64_t tcp_active_opens() {
  std::FILE* f = std::fopen("/proc/self/net/snmp", "r");
  if (f == nullptr) return 0;
  char header[1024];
  char values[1024];
  std::uint64_t out = 0;
  while (std::fgets(header, sizeof(header), f) != nullptr &&
         std::fgets(values, sizeof(values), f) != nullptr) {
    if (std::strncmp(header, "Tcp:", 4) != 0) continue;
    // Field 5 (1-based after the "Tcp:" tag) is ActiveOpens.
    const char* v = values + 4;
    for (int field = 0; field < 4; ++field) {
      v = std::strchr(v + 1, ' ');
      if (v == nullptr) break;
    }
    if (v != nullptr) out = std::strtoull(v, nullptr, 10);
    break;
  }
  std::fclose(f);
  return out;
}

/// Samples of one open-loop phase.
struct LoadResult {
  std::vector<double> hit_us;     // latency from due time, hits and 304s
  std::vector<double> render_ms;  // latency from due time, rendered responses
  std::vector<double> lag_us;     // how late each request was sent
  std::uint64_t sent = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;      // no response, or a status other than 200/304
  std::uint64_t bad_status = 0;  // a response with a status other than 200/304
  std::uint64_t renders = 0;  // responses with an ETag new for their path
  double last_done_s = 0;     // completion of the last response, from phase start
};

/// Open-loop HTTP load generator. Owns the per-path ETag history used to
/// classify responses and to send If-None-Match for the polled paths.
class LoadGen {
 public:
  explicit LoadGen(std::uint16_t port, std::uint64_t seed)
      : dst_(net::SockAddr::loopback(port)), client_(reactor_), seed_(seed) {}
  // In-flight request callbacks point into this object.
  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  /// Offer `rate` requests/s for `seconds` (and past it, at the same rate,
  /// until `*until` is set, if given), then wait for stragglers.
  LoadResult run(double rate, double seconds, const std::atomic<bool>* until = nullptr) {
    out_ = LoadResult{};
    LoadResult& out = out_;
    const auto n = static_cast<std::uint64_t>(rate * seconds);
    const std::int64_t start = now_ns();
    const double gap_ns = 1e9 / rate;
    std::uint64_t next = 0;
    auto more = [&] {
      return next < n || (until != nullptr && !until->load(std::memory_order_acquire));
    };
    while (more() || out.completed < next) {
      const std::int64_t t = now_ns();
      if (more() && start + static_cast<std::int64_t>(gap_ns * static_cast<double>(next)) <= t) {
        const std::int64_t due = start + static_cast<std::int64_t>(gap_ns * static_cast<double>(next));
        send(next_path(), due);
        out.lag_us.push_back(static_cast<double>(t - due) / 1e3);
        ++next;
        continue;
      }
      if (t - start > static_cast<std::int64_t>((seconds + 30.0) * 1e9)) break;  // stuck
      reactor_.run_once(std::chrono::milliseconds(0));
    }
    out.sent = next;
    out.failed += next - out.completed;  // never answered
    out.last_done_s = static_cast<double>(last_done_ - start) / 1e9;
    return out_;
  }

  /// A fresh deterministic path order per cycle: each cycle requests every
  /// path once, in a seeded order.
  std::size_t next_path() {
    if (cycle_pos_ == kPathCount) {
      for (std::size_t i = 0; i < kPathCount; ++i) order_[i] = i;
      for (std::size_t i = kPathCount - 1; i > 0; --i) {
        const std::size_t j = mix64(seed_ ^ (++cycles_ * kPathCount + i)) % (i + 1);
        std::swap(order_[i], order_[j]);
      }
      cycle_pos_ = 0;
    }
    return order_[cycle_pos_++];
  }

 private:
  void send(std::size_t path, std::int64_t due) {
    net::HttpRequest req{"GET", kPaths[path].path, {}, ""};
    if (kPaths[path].conditional && !last_etag_[path].empty()) {
      req.headers["if-none-match"] = last_etag_[path];
    }
    client_.request(dst_, std::move(req), std::chrono::milliseconds(5000),
                    [this, path, due](const net::HttpResult& r) {
                      LoadResult& out = out_;
                      const std::int64_t done = now_ns();
                      last_done_ = done;
                      ++out.completed;
                      auto it = r.response.headers.find("etag");
                      if (!r.ok) {
                        ++out.failed;
                        return;
                      }
                      if ((r.response.status != 200 && r.response.status != 304) ||
                          it == r.response.headers.end()) {
                        ++out.failed;
                        ++out.bad_status;
                        return;
                      }
                      const bool rendered = seen_[path].insert(it->second).second;
                      last_etag_[path] = it->second;
                      const double latency_ns = static_cast<double>(done - due);
                      if (rendered) {
                        ++out.renders;
                        out.render_ms.push_back(latency_ns / 1e6);
                      } else {
                        out.hit_us.push_back(latency_ns / 1e3);
                      }
                    });
  }

  net::Reactor reactor_;
  net::SockAddr dst_;
  net::HttpClient client_;
  std::uint64_t seed_;
  std::set<std::string> seen_[kPathCount];
  std::string last_etag_[kPathCount];
  std::size_t order_[kPathCount] = {};
  std::size_t cycle_pos_ = kPathCount;
  std::uint64_t cycles_ = 0;
  std::int64_t last_done_ = 0;
  LoadResult out_;  // the phase in progress; callbacks fill it
};

/// The serving reactor on its own thread; stops and joins on destruction.
class ServerThread {
 public:
  ServerThread(QueryRig& rig, serve::QueryServiceConfig cfg)
      : svc_(reactor_, net::SockAddr::loopback(0), rig.topo, rig.store->store(),
             &rig.services, cfg),
        thread_([this] {
          reactor_.run_until([this] { return stop_.load(std::memory_order_acquire); },
                             net::Reactor::Clock::time_point::max());
        }) {}
  ~ServerThread() {
    stop_.store(true, std::memory_order_release);
    thread_.join();
  }
  ServerThread(const ServerThread&) = delete;
  ServerThread& operator=(const ServerThread&) = delete;

  serve::QueryService& service() { return svc_; }

 private:
  net::Reactor reactor_;
  serve::QueryService svc_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: starts after the members it uses
};

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) / 1e6; }

net::HttpRequest get(const char* path) { return net::HttpRequest{"GET", path, {}, ""}; }

/// One timed window: the writer beside the open-loop readers.
struct WindowResult {
  LoadResult load;
  std::vector<double> ingest_ms;  // PersistentRollupStore::on_records, per write
  std::vector<double> wal_ms;     // traced: ingest - twin, writes without a checkpoint
  std::uint64_t wal_frames = 0;   // appended to the store's WAL
  std::uint64_t renders = 0;      // the service's cache misses
  std::uint64_t hits = 0;         // the service's cache hits
  std::uint64_t opens = 0;        // TCP connections opened
};

/// Runs one window of `seconds`: the writer applies writes[0, kWrites) on a
/// fixed schedule while the generator offers kRate requests/s. Each version
/// lives for seconds / kWrites, long enough for the generator to request
/// every path many times. A host stall can still starve a version, so
/// before each write the writer also waits (at most kRenderWait) until the
/// service has rendered every path at the current version, and the
/// generator keeps going until the writer is done: the render count then
/// repeats exactly even when the schedule slips.
WindowResult run_window(QueryRig& rig, serve::QueryService& svc, LoadGen& gen,
                        const TappedBatch* writes, double seconds, bool traced) {
  WindowResult out;
  serve::PersistentRollupStore& store = *rig.store;
  const std::uint64_t hits0 = svc.cache_hits();
  const std::uint64_t misses0 = svc.cache_misses();
  const std::uint64_t opens0 = tcp_active_opens();
  const std::uint64_t frames0 = store.wal_frames();
  const std::int64_t window_start = now_ns() + 1'000'000;
  std::atomic<bool> writer_done{false};
  auto wait_rendered = [&](std::uint64_t versions) {
    const auto deadline = Clock::now() + kRenderWait;
    while (svc.cache_misses() - misses0 < versions * kPathCount && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  };
  std::jthread writer([&] {
    const double period_ns = seconds * 1e9 / kWrites;
    for (int k = 0; k < kWrites; ++k) {
      std::this_thread::sleep_until(
          Clock::time_point(std::chrono::nanoseconds(
              window_start + static_cast<std::int64_t>(period_ns * (k + 0.5)))));
      // The pre-built version and k written ones.
      wait_rendered(static_cast<std::uint64_t>(k) + 1);
      const TappedBatch& b = writes[k];
      const std::uint64_t segments0 = store.segments_written();
      const std::int64_t t0 = now_ns();
      store.on_records(b.records, b.now);
      const double ingest = ms_since(t0);
      out.ingest_ms.push_back(ingest);
      if (!traced) continue;
      const std::int64_t t1 = now_ns();
      rig.twin->on_records(b.records, b.now);
      if (store.segments_written() == segments0) out.wal_ms.push_back(ingest - ms_since(t1));
    }
    wait_rendered(kWrites + 1);
    writer_done.store(true, std::memory_order_release);
  });
  while (now_ns() < window_start) {
  }
  out.load = gen.run(kRate, seconds, &writer_done);
  writer.join();
  out.wal_frames = store.wal_frames() - frames0;
  out.renders = svc.cache_misses() - misses0;
  out.hits = svc.cache_hits() - hits0;
  out.opens = tcp_active_opens() - opens0;
  return out;
}

}  // namespace

double run_query(const Options& opt, Report& report) {
  // The record traffic, recorded once; set-up (timed several times) builds
  // the store from it. The last rig built is the one served.
  const std::vector<TappedBatch> batches = capture_batches(opt.seed);
  std::size_t first_write = 0;
  while (first_write < batches.size() && batches[first_write].now < kPrebuild) ++first_write;
  if (batches.size() - first_write < static_cast<std::size_t>(kWrites)) {
    throw std::runtime_error("capture holds too few batches after the pre-built hour");
  }
  std::vector<double> setups;
  std::unique_ptr<QueryRig> rig;
  for (int i = 0; i < (opt.trace ? 1 : kSetups); ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<QueryRig>(batches, /*with_twin=*/opt.trace);
    setups.push_back(seconds_since(t0));
  }
  serve::PersistentRollupStore& store = *rig->store;
  std::fprintf(stderr,
               "loopbench: %zu tapped batches; store pre-built from %llu records in %.3f s "
               "(median of %zu)\n",
               batches.size(), static_cast<unsigned long long>(rig->prebuilt_records),
               median(setups), setups.size());
  report.check("query.prebuild_places_every_record",
               store.store().ingested() == rig->prebuilt_records &&
                   store.store().skipped() == 0 && store.store().rejected_future() == 0);

  serve::QueryServiceConfig qcfg;
  qcfg.cache_capacity = 64;
  ServerThread server(*rig, qcfg);
  serve::QueryService& svc = server.service();
  LoadGen gen(svc.port(), opt.seed);

  // --- the timed window, traced in the traced run --------------------------
  const WindowResult main =
      run_window(*rig, svc, gen, batches.data() + first_write, opt.seconds, opt.trace);

  // --- read-only ladder, climbed kClimbs times (traced run only) -----------
  std::vector<double> climbs;
  double low_hit_p50_us = 0;
  std::uint64_t ladder_failed = 0;
  std::uint64_t ladder_bad_status = 0;
  std::uint64_t ladder_sent = 0;
  for (int c = 0; opt.trace && c < kClimbs; ++c) {
    double max_qps = 0;
    bool pass = true;
    for (int rung = 0; rung < kLadderRungs && pass; ++rung) {
      const double rate = kLadderBase * std::pow(kLadderRatio, rung);
      pass = false;
      for (int attempt = 0; attempt < kRungAttempts && !pass; ++attempt) {
        LoadResult step = gen.run(rate, kStepSeconds);
        ladder_failed += step.failed;
        ladder_bad_status += step.bad_status;
        ladder_sent += step.sent;
        const double p99 = percentile(step.hit_us, 0.99);
        const double lag = percentile(step.lag_us, 0.99);
        if (low_hit_p50_us == 0) low_hit_p50_us = median(step.hit_us);
        pass = step.failed == 0 && step.renders == 0 && p99 <= kHitP99LimitUs &&
               lag <= kLagP99LimitUs && step.last_done_s <= kStepSeconds + kBacklogSlack;
        if (pass) {
          max_qps = static_cast<double>(step.completed) / step.last_done_s;
        } else {
          std::fprintf(stderr,
                       "loopbench: climb %d fails %.0f/s: hit p99 %.0f us, lag p99 %.0f us, "
                       "last response %.3f s, %llu failed\n",
                       c + 1, rate, p99, lag, step.last_done_s,
                       static_cast<unsigned long long>(step.failed));
        }
      }
    }
    std::fprintf(stderr, "loopbench: ladder climb %d: %.0f requests/s\n", c + 1, max_qps);
    climbs.push_back(max_qps);
  }

  // --- correctness ----------------------------------------------------------
  // Overloaded ladder rungs may time requests out; every response that
  // does arrive must still be a 200 or a 304.
  report.check("query.responses_all_200_or_304",
               main.load.failed == 0 && ladder_bad_status == 0);
  // The window renders the pre-built version and each written one.
  report.check("query.renders_once_per_path_per_version",
               main.load.renders == (kWrites + 1) * kPathCount &&
                   main.renders == main.load.renders);
  report.check("query.wal_frame_per_write", main.wal_frames == kWrites);
  report.check("query.rollup_conservation", store.store().check_conservation());
  if (opt.trace) {
    report.check("query.twin_digest_matches", rig->twin->digest() == store.store().digest());
  }
  {
    // Sampled HTTP responses equal in-process handle(), and a fresh
    // (cold-cache) service renders the same bodies the cache served.
    serve::QueryService cold(rig->topo, store.store(), &rig->services, qcfg);
    bool same = true;
    for (const QueryPath& p : kPaths) {
      net::HttpResult http;
      net::Reactor reactor;
      net::HttpClient client(reactor);
      bool done = false;
      client.get(net::SockAddr::loopback(svc.port()), p.path, std::chrono::milliseconds(5000),
                 [&](const net::HttpResult& r) {
                   http = r;
                   done = true;
                 });
      reactor.run_until([&] { return done; }, Clock::now() + std::chrono::seconds(10));
      const net::HttpResponse local = svc.handle(get(p.path));
      const net::HttpResponse fresh = cold.handle(get(p.path));
      same = same && http.ok && http.response.status == 200 &&
             http.response.body == local.body && http.response.body == fresh.body &&
             http.response.headers["etag"] == local.headers.at("etag");
    }
    report.check("query.http_matches_handle", same);
  }
  {
    // The durable store recovers from its WAL and checkpoints to the
    // identical digest.
    serve::RollupStore recovered(rig->topo, &rig->services, serve::RollupConfig{});
    serve::recover_rollup_store(recovered, rig->cosmos);
    report.check("query.recovery_digest_matches",
                 recovered.digest() == store.store().digest());
  }
  report.attempted += main.load.sent + ladder_sent;
  report.failed += main.load.failed + ladder_failed;

  if (!opt.trace) {
    report.metric("query_hit_p50_us", median(main.load.hit_us), "us");
    report.metric("query_hit_p99_us", percentile(main.load.hit_us, 0.99), "us");
    report.metric("query_render_p50_ms", median(main.load.render_ms), "ms");
    report.metric("query_render_p90_ms", percentile(main.load.render_ms, 0.90), "ms");
    report.metric("ingest_p90_ms", percentile(main.ingest_ms, 0.90), "ms");
    return median(setups);
  }

  // --- per-layer (traced run) ----------------------------------------------
  // In-process handle() with the server idle: hits, then renders on fresh
  // services (an empty cache renders every first request).
  std::vector<double> handle_hit_us;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    (void)svc.handle(get(kPaths[static_cast<std::size_t>(i) % kPathCount].path));
    handle_hit_us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  std::map<std::string, std::vector<double>> render_ms;
  for (int i = 0; i < 5; ++i) {
    serve::QueryService cold(rig->topo, store.store(), &rig->services, qcfg);
    for (const QueryPath& p : kPaths) {
      const std::int64_t t0 = now_ns();
      (void)cold.handle(get(p.path));
      render_ms[p.endpoint].push_back(ms_since(t0));
    }
  }
  const double handle_hit = median(handle_hit_us);
  report.metric("serve.handle_hit_us", handle_hit, "us");
  for (const auto& [endpoint, v] : render_ms) {
    report.metric("serve.handle_render_ms." + endpoint, median(v), "ms");
  }
  report.metric("serve.cache_hit_ratio",
                static_cast<double>(main.hits) /
                    static_cast<double>(std::max<std::uint64_t>(1, main.hits + main.renders)),
                "ratio");
  report.metric("serve.renders", static_cast<double>(main.renders), "count");
  report.metric("serve.wal_append_ms", median(main.wal_ms), "ms");
  report.metric("serve.rollup_memory_mib",
                static_cast<double>(store.store().memory_bytes()) / (1024.0 * 1024.0), "MiB");
  report.metric("net.transport_us", low_hit_p50_us - handle_hit, "us");
  report.metric("net.connections_per_request",
                static_cast<double>(main.opens) /
                    static_cast<double>(std::max<std::uint64_t>(1, main.load.sent)),
                "ratio");
  report.metric("loadgen.lag_p99_us", percentile(main.load.lag_us, 0.99), "us");
  report.metric("serve.max_qps", median(climbs), "1/s");
  return 0;
}

}  // namespace loopbench
