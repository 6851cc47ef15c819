// Shared plumbing for the repo benchmark: host clock, in-memory spans,
// latency percentiles with failures as +inf, the metric report, and the
// calibration probes that time one layer's public calls in isolation.
//
// Everything here lives outside src/: the benchmark drives the system only
// through its public headers and times those calls from the outside.
#pragma once

#include <chrono>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/network.h"
#include "sim/simulator.h"

namespace perfbench {

// Host monotonic clock in nanoseconds.
inline std::int64_t host_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Spans around the benchmark's own calls into each layer. Totals per name
// are always kept (they feed host-time metrics); the individual records are
// kept only when recording is on (the traced run) and are written out as
// Chrome trace-event JSON at the end of the run.
class SpanLog {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  // index of the enclosing span, -1 for a root
  };

  explicit SpanLog(bool record) : record_(record), origin_ns_(host_ns()) {}

  int begin(const char* name);
  void end(int id, const char* name, std::int64_t start_ns);

  // Sum of durations and number of spans with this name.
  double total_ns(const std::string& name) const;
  std::uint64_t count(const std::string& name) const;

  bool write_chrome(const std::string& path) const;

  class Scope {
   public:
    Scope(SpanLog& log, const char* name)
        : log_(log), name_(name), start_(host_ns()), id_(log.begin(name)) {}
    ~Scope() { log_.end(id_, name_, start_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog& log_;
    const char* name_;
    std::int64_t start_;
    int id_;
  };

 private:
  struct Total {
    std::string name;
    double ns = 0;
    std::uint64_t n = 0;
  };
  Total& total_for(const char* name);

  bool record_;
  std::int64_t origin_ns_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
  std::vector<Total> totals_;
};

// Latencies of attempted ops in ms; an op that never completed counts as
// +inf, so it misses every latency limit.
class Latencies {
 public:
  void add(double ms) { ms_.push_back(ms); }
  void add_failed(std::uint64_t n = 1) { failed_ += n; }
  std::uint64_t samples() const { return ms_.size() + failed_; }
  std::uint64_t failed() const { return failed_; }
  // Nearest-rank percentile, q in (0, 1); +inf when it lands on a failure.
  double percentile(double q);
  // Samples strictly beyond the q-th percentile's rank.
  std::uint64_t beyond(double q) const;

 private:
  std::vector<double> ms_;
  std::uint64_t failed_ = 0;
  bool sorted_ = false;
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::uint64_t samples = 0;  // percentiles only
};

struct Report {
  std::string workload;
  std::uint64_t seed = 0;
  bool correct = true;
  std::string violation;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void set(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples = 0);
  // Records a percentile with its sample count. An end-to-end percentile
  // (`gated`) without at least ten samples beyond it is refused as a
  // violation. A percentile that lands on a failed op reads as `cap_ms`, the
  // longest latency the run could observe.
  void set_percentile(const std::string& name, Latencies& lat, double q, double cap_ms,
                      bool gated = true);
  void fail(const std::string& why);
  // Human-readable table, then the machine-readable object as the last
  // line. A run with a violation reports the violation and no metrics.
  void print() const;
};

double median(std::vector<double> v);
double peak_rss_mb();

// Host time of a measured phase run several times on the same inputs, so
// every run does the same work chunk for chunk: the sum over chunks of each
// chunk's fastest time. Interference from other load on the host only ever
// slows a chunk down, so keeping the fastest of several takes reads the
// program's own cost more steadily than one run's total.
double fastest_chunks_ns(const std::vector<std::vector<double>>& runs);

// 64-bit mixing hash (splitmix64 finalizer). The benchmark never calls
// SHA-256 itself, so the crypto counters it reads stay the program's own.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Deterministic op/broadcast body: a 20-byte header (magic, index, origin)
// followed by filler derived from (seed, index).
atum::Bytes make_body(std::uint32_t magic, std::uint64_t index, atum::NodeId origin,
                      std::size_t size, std::uint64_t seed);
struct BodyHeader {
  std::uint64_t index = 0;
  atum::NodeId origin = 0;
};
// Decodes the header; false when the body is too short or the magic differs.
bool read_body_header(const atum::net::Payload& body, std::uint32_t magic, BodyHeader& out);

// ---- calibration probes (per-layer host cost of one public call) ----

// ns per schedule_at(now) + step() of a no-op event, run on the workload's
// live simulator. Median over rounds.
double probe_bare_event_ns(atum::sim::Simulator& sim, SpanLog& spans);
// ns per Transport::send -> delivery to a trivial handler, between two probe
// ids attached beside the workload's nodes. Median over rounds.
double probe_bare_msg_ns(atum::net::SimNetwork& net, atum::NodeId probe_base, SpanLog& spans);
// ns per KiB of crypto::sha256 over buffers of the given sizes.
double probe_sha256_ns_per_kib(const std::vector<std::size_t>& sizes, SpanLog& spans);

}  // namespace perfbench
