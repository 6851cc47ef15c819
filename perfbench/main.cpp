// atum_perfbench: runs one benchmark workload and prints its metrics.
//
//   atum_perfbench --workload <bcast_steady|membership_churn|pbft_failover>
//                  --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// The last line of stdout is one JSON object with every metric the run
// produced (value, unit, sample count), the op accounting and the verdict
// of the output checks. Exit status 0 only when every check passed.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "workloads.h"

int main(int argc, char** argv) {
  perfbench::RunOptions opt;
  std::string workload;
  if (argc % 2 == 0) {
    std::fprintf(stderr, "arguments come in --key value pairs\n");
    return 2;
  }
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* key = argv[i];
    const char* val = argv[i + 1];
    if (std::strcmp(key, "--workload") == 0) {
      workload = val;
    } else if (std::strcmp(key, "--seed") == 0) {
      opt.seed = std::strtoull(val, nullptr, 10);
    } else if (std::strcmp(key, "--seconds") == 0) {
      opt.seconds = std::strtod(val, nullptr);
    } else if (std::strcmp(key, "--trace") == 0) {
      opt.traced = std::strcmp(val, "0") != 0;
    } else if (std::strcmp(key, "--trace-out") == 0) {
      opt.trace_out = val;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key);
      return 2;
    }
  }
  if (opt.seconds <= 0) {
    std::fprintf(stderr, "--seconds must be positive\n");
    return 2;
  }
  perfbench::Report report;
  if (workload == "bcast_steady") {
    report = perfbench::run_bcast_steady(opt);
  } else if (workload == "membership_churn") {
    report = perfbench::run_membership_churn(opt);
  } else if (workload == "pbft_failover") {
    report = perfbench::run_pbft_failover(opt);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", workload.c_str());
    return 2;
  }
  report.print();
  return report.correct ? 0 : 1;
}
