// loopbench: the whole-loop benchmark of the Pingmesh reproduction.
//
//   loopbench --phase batch|online|query --seed N --seconds S --trace 0|1
//
// Runs one phase of a benchmark run: the loop phase in the batch or the
// online mode (the simulated fleet through the measurement loop), or the
// query phase (the serving tier under reads and writes). run.py runs each
// phase a workload needs in a process of its own, so that no phase runs
// on the heap and threads another phase left behind, and merges their
// reports.
//
// Prints progress to stderr and, as the last line of stdout, one JSON
// object with the phase's metrics, correctness checks and operation ledger.
// Exit status: 0 when every check passed, 1 when a check failed, 2 on a
// usage error. See README.md in this directory for the workloads and the
// metric-to-layer map.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: loopbench --phase batch|online|query --seed N --seconds S "
               "--trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  loopbench::Options opt;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string val = argv[i + 1];
    if (key == "--phase") {
      opt.phase = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atoi(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val != "0";
    } else {
      return usage();
    }
  }
  if (opt.seconds < 1) return usage();
  if (opt.phase != "batch" && opt.phase != "online" && opt.phase != "query") return usage();

  loopbench::Report report;
  try {
    const double setup_s = opt.phase == "query"
                               ? loopbench::run_query(opt, report)
                               : loopbench::run_loop(opt, opt.phase == "online", report);
    if (!opt.trace) report.metric("setup_s", setup_s, "s");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loopbench: %s\n", e.what());
    report.check("no_exception", false);
  }
  report.metric("peak_rss_mib", loopbench::peak_rss_mib(), "MiB");
  std::printf("%s\n", report.to_json().c_str());
  return report.all_ok() ? 0 : 1;
}
