#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/serde.h"
#include "crypto/sha256.h"

namespace perfbench {

using namespace atum;

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

int SpanLog::begin(const char* name) {
  if (!record_) return -1;
  const int parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, host_ns(), 0, parent});
  const int id = static_cast<int>(spans_.size()) - 1;
  stack_.push_back(id);
  return id;
}

void SpanLog::end(int id, const char* name, std::int64_t start_ns) {
  const std::int64_t now = host_ns();
  Total& t = total_for(name);
  t.ns += static_cast<double>(now - start_ns);
  ++t.n;
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now;
  stack_.pop_back();
}

SpanLog::Total& SpanLog::total_for(const char* name) {
  for (Total& t : totals_) {
    if (t.name == name) return t;
  }
  totals_.push_back(Total{name, 0, 0});
  return totals_.back();
}

double SpanLog::total_ns(const std::string& name) const {
  for (const Total& t : totals_) {
    if (t.name == name) return t.ns;
  }
  return 0;
}

std::uint64_t SpanLog::count(const std::string& name) const {
  for (const Total& t : totals_) {
    if (t.name == name) return t.n;
  }
  return 0;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  std::fprintf(f,
               "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
               "\"args\":{\"name\":\"perfbench (host time)\"}}");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 ",\n{\"name\":\"%s\",\"cat\":\"%.*s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 s.name, static_cast<int>(std::strcspn(s.name, ".")), s.name,
                 static_cast<double>(s.start_ns - origin_ns_) / 1e3,
                 static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Latencies / Report
// ---------------------------------------------------------------------------

double Latencies::percentile(double q) {
  if (!sorted_) {
    std::sort(ms_.begin(), ms_.end());
    sorted_ = true;
  }
  const std::uint64_t n = samples();
  if (n == 0) return 0;
  auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::uint64_t>(rank, 1, n);
  if (rank > ms_.size()) return std::numeric_limits<double>::infinity();
  return ms_[rank - 1];
}

std::uint64_t Latencies::beyond(double q) const {
  const std::uint64_t n = samples();
  const auto rank = static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(n)));
  return n > rank ? n - rank : 0;
}

void Report::set(const std::string& name, double value, const std::string& unit,
                 std::uint64_t samples) {
  for (Metric& m : metrics) {
    if (m.name == name) {
      m = Metric{name, value, unit, samples};
      return;
    }
  }
  metrics.push_back(Metric{name, value, unit, samples});
}

void Report::set_percentile(const std::string& name, Latencies& lat, double q, double cap_ms,
                            bool gated) {
  if (gated && lat.beyond(q) < 10) {
    fail(name + ": " + std::to_string(lat.samples()) +
         " samples leave fewer than 10 beyond the percentile");
    return;
  }
  double v = lat.percentile(q);
  if (std::isinf(v)) v = cap_ms;
  set(name, v, "ms", lat.samples());
}

void Report::fail(const std::string& why) {
  if (correct) violation = why;
  correct = false;
}

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

}  // namespace

void Report::print() const {
  if (!correct) {
    std::printf("workload %s seed %" PRIu64 ": VIOLATION: %s\n", workload.c_str(), seed,
                violation.c_str());
    std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
                ",\"correct\":false,\"violation\":\"%s\",\"metrics\":{}}\n",
                workload.c_str(), seed, json_escape(violation).c_str());
    std::fflush(stdout);
    return;
  }
  std::printf("workload %s seed %" PRIu64 ": all output checks passed\n", workload.c_str(), seed);
  std::printf("  attempted %" PRIu64 " ops, failed %" PRIu64 "\n", attempted, failed);
  for (const Metric& m : metrics) {
    if (m.samples > 0) {
      std::printf("  %-32s %16.6f %-8s (n=%" PRIu64 ")\n", m.name.c_str(), m.value,
                  m.unit.c_str(), m.samples);
    } else {
      std::printf("  %-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  }
  std::printf("{\"workload\":\"%s\",\"seed\":%" PRIu64
              ",\"correct\":true,\"attempted\":%" PRIu64 ",\"failed\":%" PRIu64
              ",\"metrics\":{",
              workload.c_str(), seed, attempted, failed);
  bool first = true;
  for (const Metric& m : metrics) {
    std::printf("%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\",\"samples\":%" PRIu64 "}",
                first ? "" : ",", m.name.c_str(), m.value, m.unit.c_str(), m.samples);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double fastest_chunks_ns(const std::vector<std::vector<double>>& runs) {
  std::size_t chunks = runs.empty() ? 0 : runs[0].size();
  for (const std::vector<double>& r : runs) chunks = std::min(chunks, r.size());
  double total = 0;
  for (std::size_t i = 0; i < chunks; ++i) {
    double best = runs[0][i];
    for (const std::vector<double>& r : runs) best = std::min(best, r[i]);
    total += best;
  }
  return total;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

// ---------------------------------------------------------------------------
// Bodies
// ---------------------------------------------------------------------------

Bytes make_body(std::uint32_t magic, std::uint64_t index, NodeId origin, std::size_t size,
                std::uint64_t seed) {
  ByteWriter w;
  w.u32(magic);
  w.u64(index);
  w.u64(origin);
  Bytes out = w.take();
  std::uint64_t x = mix64(seed ^ mix64(index));
  while (out.size() < size) {
    x = mix64(x);
    out.push_back(static_cast<std::uint8_t>(x));
  }
  return out;
}

bool read_body_header(const net::Payload& body, std::uint32_t magic, BodyHeader& out) {
  if (body.size() < 20) return false;
  try {
    ByteReader r(body);
    if (r.u32() != magic) return false;
    out.index = r.u64();
    out.origin = r.u64();
    return true;
  } catch (const SerdeError&) {
    return false;
  }
}

// ---------------------------------------------------------------------------
// Calibration probes
// ---------------------------------------------------------------------------

double probe_bare_event_ns(sim::Simulator& sim, SpanLog& spans) {
  SpanLog::Scope scope(spans, "probe.sim_bare_event");
  constexpr int kRounds = 41;
  constexpr int kPerRound = 512;
  std::vector<double> per_event;
  std::uint64_t fired = 0;
  sim.run_until(sim.now());  // nothing due now may run ahead of the probe's events
  for (int r = 0; r < kRounds; ++r) {
    const std::int64_t t0 = host_ns();
    for (int i = 0; i < kPerRound; ++i) sim.schedule_at(sim.now(), [&fired] { ++fired; });
    for (int i = 0; i < kPerRound; ++i) sim.step();
    const std::int64_t t1 = host_ns();
    per_event.push_back(static_cast<double>(t1 - t0) / kPerRound);
  }
  // Pending workload events all lie in the future, so every step must have
  // run one of the probe's own no-ops.
  if (fired != static_cast<std::uint64_t>(kRounds) * kPerRound) return -1;
  return median(per_event);
}

double probe_bare_msg_ns(net::SimNetwork& net, NodeId probe_base, SpanLog& spans) {
  SpanLog::Scope scope(spans, "probe.net_bare_msg");
  constexpr int kRounds = 41;
  constexpr int kPerRound = 32;
  const NodeId a = probe_base;
  const NodeId b = probe_base + 1;
  std::uint64_t delivered = 0;
  net.attach(a, [](const net::Message&) {});
  net.attach(b, [&delivered](const net::Message&) { ++delivered; });
  net::Transport tx(net, a);
  const net::Payload body(Bytes(64, 0x42));
  sim::Simulator& sim = net.simulator();
  std::vector<double> per_msg;
  for (int r = 0; r < kRounds; ++r) {
    const std::uint64_t want = delivered + kPerRound;
    const std::int64_t t0 = host_ns();
    for (int i = 0; i < kPerRound; ++i) tx.send(b, net::MsgType::kAppData, body);
    while (delivered < want && sim.step()) {
    }
    const std::int64_t t1 = host_ns();
    if (delivered < want) break;
    per_msg.push_back(static_cast<double>(t1 - t0) / kPerRound);
  }
  net.detach(a);
  net.detach(b);
  if (per_msg.size() != static_cast<std::size_t>(kRounds)) return -1;
  return median(per_msg);
}

namespace {
volatile std::uint8_t g_sink = 0;
}  // namespace

double probe_sha256_ns_per_kib(const std::vector<std::size_t>& sizes, SpanLog& spans) {
  SpanLog::Scope scope(spans, "probe.crypto_sha256");
  std::vector<Bytes> bufs;
  std::size_t total = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    bufs.push_back(make_body(0, i, 0, sizes[i], 0x5a5a));
    total += sizes[i];
  }
  // Enough passes per round for ~1 MiB hashed, so a round is well above the
  // clock's resolution whatever the mix.
  const std::size_t passes = std::max<std::size_t>(1, (std::size_t{1} << 20) / total);
  std::vector<double> per_kib;
  std::uint8_t sink = 0;  // consumes every digest so no call is elided
  for (int r = 0; r < 21; ++r) {
    const std::int64_t t0 = host_ns();
    for (std::size_t p = 0; p < passes; ++p) {
      for (const Bytes& b : bufs) sink ^= crypto::sha256(b)[0];
    }
    const std::int64_t t1 = host_ns();
    per_kib.push_back(static_cast<double>(t1 - t0) /
                      (static_cast<double>(passes * total) / 1024.0));
  }
  g_sink = sink;
  return median(per_kib);
}

}  // namespace perfbench
