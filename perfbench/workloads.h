// The benchmark's three workloads. Each runs in one single-threaded process
// and returns a Report holding the end-to-end metrics and, for the traced
// run, the per-layer metrics.
#pragma once

#include <cstdint>
#include <string>

#include "harness.h"
#include "obs/trace.h"

namespace perfbench {

struct RunOptions {
  std::uint64_t seed = 1;
  double seconds = 10;     // requested measured-phase host time
  bool traced = false;     // per-layer run instead of end-to-end run
  std::string trace_out;   // Chrome-trace file for the traced run's spans
};

Report run_bcast_steady(const RunOptions& opt);
Report run_membership_churn(const RunOptions& opt);
Report run_pbft_failover(const RunOptions& opt);

// Per-op SMR pipeline stages read from a tracer snapshot, seen from the
// proposing replica: queue = propose -> pre-prepare (at the primary),
// order = pre-prepare -> the proposer's commit vote, exec = commit vote ->
// decide at the proposer.
struct SmrStages {
  Latencies queue;
  Latencies order;
  Latencies exec;
};
SmrStages smr_stages(const std::vector<atum::obs::TraceEvent>& events);

// Longest interval during which at least one op was outstanding (due, not
// yet completed) and none completed. Ops that never completed (`done` < 0)
// are left out: they already count as failed, and would otherwise stretch
// the stall to the end of the run.
struct OpTimes {
  atum::TimeMicros due;
  atum::TimeMicros done;
};
double longest_stall_ms(const std::vector<OpTimes>& ops);

}  // namespace perfbench
