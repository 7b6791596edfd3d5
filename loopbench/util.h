// Shared helpers of the whole-loop benchmark: wall-clock reads, sample
// statistics, output digests and the result record the driver prints.
//
// Everything here lives in the benchmark, outside the library: the
// benchmark times each layer from outside, around calls to its public
// functions, so the code under test carries no benchmark hooks.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace loopbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

/// Nearest-rank percentile (rank ceil(q * n)), the convention the
/// repository's sketches use. 0 for an empty sample.
inline double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<std::size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

inline double sum(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return s;
}

/// Peak resident set (VmHWM) of this process in MiB; 0 without /proc.
inline double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
      break;
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Order-sensitive 64-bit digest (FNV-1a over bytes, plus integer mixing).
class Digest {
 public:
  void bytes(std::string_view data) {
    for (char c : data) {
      h_ ^= static_cast<std::uint8_t>(c);
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ull;
    }
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

/// What one benchmark run reports: metrics with units, named correctness
/// checks, and the operation ledger (attempted / failed).
struct Report {
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::vector<std::pair<std::string, bool>> checks;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
    if (!ok) std::fprintf(stderr, "loopbench: CHECK FAILED: %s\n", name.c_str());
  }
  [[nodiscard]] bool all_ok() const {
    return std::all_of(checks.begin(), checks.end(), [](const auto& c) { return c.second; });
  }
  /// One JSON object on one line (the driver script parses it).
  [[nodiscard]] std::string to_json() const;
};

inline std::string json_escape(std::string_view s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

inline std::string Report::to_json() const {
  std::string out = "{\"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : metrics) {
    if (!first) out += ", ";
    first = false;
    std::snprintf(buf, sizeof(buf), "%.17g", m.value);
    out += "\"" + json_escape(name) + "\": {\"value\": " + buf + ", \"unit\": \"" +
           json_escape(m.unit) + "\"}";
  }
  out += "}, \"checks\": {";
  first = true;
  for (const auto& [name, ok] : checks) {
    if (!first) out += ", ";
    first = false;
    out += "\"" + json_escape(name) + "\": " + (ok ? "true" : "false");
  }
  out += "}}";
  return out;
}

struct Options {
  std::string phase;  // batch | online | query
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
};

/// The loop phase in the batch or the online mode. An untraced run reports
/// records_per_s_4w and returns the median set-up time; a traced run
/// reports the mode's per-layer metrics and returns 0.
double run_loop(const Options& opt, bool online, Report& report);
/// The query phase. An untraced run reports the query and ingest metrics
/// and returns the median set-up time; a traced run reports the serve, net
/// and load-generator metrics and returns 0.
double run_query(const Options& opt, Report& report);

}  // namespace loopbench
