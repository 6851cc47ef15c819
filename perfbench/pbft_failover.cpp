// pbft_failover: one bare PbftSmr group (n = 7, default options) on a
// Simulator + SimNetwork. The six backups propose open-loop, round-robin;
// halfway through the send window the primary is silenced and isolated.
// An op is one proposal; its latency runs from its due time to its decide
// at the proposing replica.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>

#include "crypto/keys.h"
#include "crypto/sha256.h"
#include "net/network.h"
#include "obs/registry.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "smr/pbft.h"
#include "workloads.h"

namespace perfbench {

using namespace atum;

namespace {

constexpr std::uint32_t kOpMagic = 0x0B5F0A11;
constexpr std::size_t kReplicas = 7;
constexpr NodeId kPrimary = 0;  // primary of view 0 (sorted members)
constexpr DurationMicros kOpInterval = 500;  // 2,000 ops/s across the backups
constexpr std::size_t kSmallOp = 64;
constexpr std::size_t kLargeOp = 4096;
constexpr double kLargeShare = 0.10;
// A run is kReps independent failovers (fresh group, own inputs). Each one's
// measured phase runs kPasses times on its inputs, and its host time keeps
// each chunk's fastest pass (fastest_chunks_ns). All send windows together
// add up to kSimPerHostS sim seconds per requested second.
constexpr int kReps = 5;
constexpr int kPasses = 2;
constexpr double kSimPerHostS = 7.5;
constexpr DurationMicros kDrain = seconds(5.0);
constexpr DurationMicros kChunk = millis(100);
// Set-ups timed for setup_s before each measured pass (its own included),
// so they are spread over the whole run.
constexpr int kSetupsPerPass = 3;
// The system's own seeds stay constant; --seed only drives the inputs.
constexpr std::uint64_t kNetSeed = 0x5417;
constexpr std::uint64_t kKeySeed = 11;
constexpr std::uint64_t kInputSalt = 0x9bf7a3c5ULL;

// End-to-end figures pooled over the repetitions of one run.
struct Pooled {
  Latencies lat;
  std::uint64_t completed = 0;
  std::uint64_t bytes = 0;
  double cap_ms = 0;
  std::vector<double> stalls_ms;
  std::vector<double> sim_per_host_s;

  void report(Report& r) {
    r.attempted = lat.samples();
    r.failed = lat.failed();
    r.set("sim_s_per_host_s", median(sim_per_host_s), "sim_s/s", sim_per_host_s.size());
    r.set_percentile("latency_p50_ms", lat, 0.50, cap_ms);
    r.set_percentile("latency_p99_ms", lat, 0.99, cap_ms);
    r.set("completed_frac", static_cast<double>(completed) / static_cast<double>(r.attempted),
          "ratio");
    r.set("net_bytes_per_op",
          completed == 0 ? 0.0 : static_cast<double>(bytes) / static_cast<double>(completed), "B");
    r.set("unavailable_ms", median(stalls_ms), "ms", stalls_ms.size());
  }
};

struct Op {
  TimeMicros due = 0;
  NodeId proposer = 0;
  std::size_t size = 0;
  TimeMicros decided = -1;  // at the proposer
};

class PbftWorkload {
 public:
  // Repetition `rep` of a run draws its inputs from (seed, rep).
  PbftWorkload(const RunOptions& opt, int rep, SpanLog& spans, Report& report)
      : input_seed_(mix64(opt.seed) + static_cast<std::uint64_t>(rep)),
        spans_(spans),
        report_(report),
        window_(seconds(kSimPerHostS * opt.seconds / (kReps * kPasses))) {}

  void setup() {
    SpanLog::Scope scope(spans_, "setup");
    net_ = std::make_unique<net::SimNetwork>(sim_, net::NetworkConfig::datacenter(), kNetSeed);
    keys_ = std::make_unique<crypto::KeyStore>(kKeySeed);
    smr::GroupConfig cfg;
    for (NodeId i = 0; i < kReplicas; ++i) cfg.members.push_back(i);
    smr::PbftOptions options;
    options.metrics = &registry_;
    options.tracer = &tracer_;
    prefix_.resize(kReplicas);
    seen_.resize(kReplicas);
    for (NodeId i = 0; i < kReplicas; ++i) {
      auto r = std::make_unique<smr::PbftSmr>(net::Transport(*net_, i), cfg, *keys_, options);
      r->set_decide_handler([this, i](std::uint64_t, NodeId origin, const net::Payload& op) {
        on_decide(i, origin, op);
      });
      r->set_install_handler([this, i](std::uint64_t, std::uint64_t, std::uint64_t, std::uint64_t) {
        installed_[i] = true;
      });
      replicas_.push_back(std::move(r));
    }
    t0_ = sim_.now();
    crash_at_ = t0_ + window_ / 2;
    end_ = t0_ + window_ + kDrain;
    schedule_ops();
    sim_.schedule_at(crash_at_, [this] {
      replicas_[kPrimary]->set_fault(smr::PbftFaultMode::kSilent);
      net_->isolate(kPrimary, true);
    });
  }

  void measure() {
    const std::uint64_t events0 = sim_.executed_events();
    const net::NetworkStats ns0 = net_->stats();
    const std::uint64_t sha0 = crypto::sha256_digest_count();
    const std::int64_t wall0 = host_ns();
    for (TimeMicros t = t0_ + kChunk; t <= end_ && report_.correct; t += kChunk) {
      const std::int64_t chunk0 = host_ns();
      {
        SpanLog::Scope scope(spans_, "sim.run_until");
        sim_.run_until(t);
      }
      peak_live_ = std::max(peak_live_, sim_.live_events());
      flows_peak_ = std::max(flows_peak_, net_->flow_count());
      chunk_ns_.push_back(static_cast<double>(host_ns() - chunk0));
    }
    measured_wall_ns_ = static_cast<double>(host_ns() - wall0);
    events_ = sim_.executed_events() - events0;
    msgs_ = net_->stats().messages_sent - ns0.messages_sent;
    bytes_ = net_->stats().bytes_sent - ns0.bytes_sent;
    dropped_ = net_->stats().messages_dropped - ns0.messages_dropped;
    blocked_ = net_->stats().messages_blocked - ns0.messages_blocked;
    sha_ = crypto::sha256_digest_count() - sha0;
    check_agreement();
  }

  // Adds this repetition's ops to the pooled end-to-end figures; `host_ns`
  // is its measured phase's host time.
  void pool(Pooled& p, double host_ns) {
    std::vector<OpTimes> timeline;
    TimeMicros first_after_crash = -1;
    for (const Op& op : ops_) {
      timeline.push_back(OpTimes{op.due, op.decided});
      if (op.decided < 0) {
        p.lat.add_failed();
        continue;
      }
      p.lat.add(static_cast<double>(op.decided - op.due) / 1e3);
      ++completed_;
      if (op.decided > crash_at_ && (first_after_crash < 0 || op.decided < first_after_crash)) {
        first_after_crash = op.decided;
      }
    }
    if (completed_ == 0) report_.fail("no op was decided");
    p.completed += completed_;
    p.bytes += bytes_;
    p.cap_ms = static_cast<double>(end_ - t0_) / 1e3;
    p.stalls_ms.push_back(longest_stall_ms(timeline));
    p.sim_per_host_s.push_back(to_seconds(end_ - t0_) / (host_ns / 1e9));
    failover_ms_ = first_after_crash < 0 ? p.cap_ms
                                         : static_cast<double>(first_after_crash - crash_at_) / 1e3;
  }

  void report_layer_counts() {
    report_.set("sim.events_per_op", per_op(events_), "events");
    report_.set("sim.peak_live_events", static_cast<double>(peak_live_), "events");
    report_.set("sim.slot_count", static_cast<double>(sim_.slot_count()), "slots");
    report_.set("net.msgs_per_op", per_op(msgs_), "msgs");
    report_.set("net.dropped", static_cast<double>(dropped_), "msgs");
    report_.set("net.blocked", static_cast<double>(blocked_), "msgs");
    report_.set("net.flows_peak", static_cast<double>(flows_peak_), "flows");
    const std::uint64_t batches = registry_.value("smr.batches_executed");
    report_.set("smr.ops_per_batch",
                batches == 0 ? 0.0
                             : static_cast<double>(registry_.value("smr.ops_decided")) /
                                   static_cast<double>(batches),
                "ops");
    report_.set("smr.msgs_per_op",
                per_op(registry_.value("smr.pre_prepares") + registry_.value("smr.prepares") +
                       registry_.value("smr.commits")),
                "msgs");
    report_.set("smr.view_changes", static_cast<double>(registry_.value("smr.view_changes")),
                "count");
    report_.set("smr.checkpoints_stable",
                static_cast<double>(registry_.value("smr.checkpoints_stable")), "count");
    report_.set("smr.checkpoint_installs",
                static_cast<double>(registry_.value("smr.checkpoint_installs")), "count");
    report_.set("smr.failover_ms", failover_ms_, "ms");
    report_.set("crypto.sha256_per_op", per_op(sha_), "digests");
  }

  void report_layer_trace() {
    report_.set("sim.host_ns_per_event",
                spans_.total_ns("sim.run_until") /
                    static_cast<double>(std::max<std::uint64_t>(1, events_)),
                "ns");
    const std::uint64_t proposes = spans_.count("smr.propose");
    report_.set("smr.host_us_per_propose",
                proposes == 0 ? 0.0
                              : spans_.total_ns("smr.propose") / static_cast<double>(proposes) / 1e3,
                "us");
    const double cap_ms = static_cast<double>(end_ - t0_) / 1e3;
    SmrStages st = smr_stages(tracer_.snapshot());
    report_.set_percentile("smr.queue_ms_p50", st.queue, 0.50, cap_ms, false);
    report_.set_percentile("smr.order_ms_p50", st.order, 0.50, cap_ms, false);
    report_.set_percentile("smr.exec_ms_p50", st.exec, 0.50, cap_ms, false);
  }

  sim::Simulator& simulator() { return sim_; }
  net::SimNetwork& network() { return *net_; }
  obs::Tracer& tracer() { return tracer_; }
  double measured_wall_ns() const { return measured_wall_ns_; }
  const std::vector<double>& chunk_ns() const { return chunk_ns_; }
  // The measured phase's work: events run, messages and bytes sent.
  std::vector<std::uint64_t> work() const { return {events_, msgs_, bytes_}; }
  // Sizes of the first ops, a sample of the workload's size mix.
  std::vector<std::size_t> op_sizes() const {
    std::vector<std::size_t> sizes;
    for (std::size_t k = 0; k < ops_.size() && k < 100; ++k) sizes.push_back(ops_[k].size);
    return sizes;
  }

  ~PbftWorkload() {
    for (auto& r : replicas_) r->stop();
  }
  PbftWorkload(const PbftWorkload&) = delete;
  PbftWorkload& operator=(const PbftWorkload&) = delete;

 private:
  double per_op(std::uint64_t n) const {
    return completed_ == 0 ? 0.0 : static_cast<double>(n) / static_cast<double>(completed_);
  }

  void schedule_ops() {
    Rng rng(input_seed_ ^ kInputSalt);
    std::size_t next_backup = 0;
    for (TimeMicros due = t0_ + kOpInterval; due < t0_ + window_; due += kOpInterval) {
      const std::size_t k = ops_.size();
      const NodeId proposer = 1 + (next_backup++ % (kReplicas - 1));
      ops_.push_back(Op{due, proposer, rng.chance(kLargeShare) ? kLargeOp : kSmallOp, -1});
      sim_.schedule_at(due, [this, k] { fire(k); });
    }
    for (auto& s : seen_) s.assign(ops_.size(), 0);
  }

  void fire(std::size_t k) {
    Op& op = ops_[k];
    if (sim_.now() != op.due) {
      report_.fail("op " + std::to_string(k) + " fired late");
    }
    Bytes body = make_body(kOpMagic, k, op.proposer, op.size, input_seed_);
    SpanLog::Scope scope(spans_, "smr.propose");
    replicas_[op.proposer]->propose(std::move(body));
  }

  void on_decide(NodeId replica, NodeId origin, const net::Payload& payload) {
    BodyHeader h;
    if (!read_body_header(payload, kOpMagic, h) || h.index >= ops_.size()) {
      report_.fail("replica " + std::to_string(replica) + " decided an op never proposed");
      return;
    }
    Op& op = ops_[h.index];
    if (origin != op.proposer || h.origin != op.proposer || payload.size() != op.size) {
      report_.fail("op " + std::to_string(h.index) + " decided with a wrong origin or size");
      return;
    }
    const Bytes want = make_body(kOpMagic, h.index, op.proposer, op.size, input_seed_);
    if (std::memcmp(payload.data(), want.data(), want.size()) != 0) {
      report_.fail("op " + std::to_string(h.index) + " decided with altered bytes");
    }
    if (seen_[replica][h.index]++ != 0) {
      report_.fail("op " + std::to_string(h.index) + " decided twice at replica " +
                   std::to_string(replica));
    }
    // Running digest of this replica's decided sequence, one entry per op.
    std::vector<std::uint64_t>& pre = prefix_[replica];
    pre.push_back(mix64((pre.empty() ? 0 : pre.back()) ^ mix64(h.index)));
    if (replica == op.proposer && op.decided < 0) op.decided = sim_.now();
  }

  // Correct replicas (every backup) decide the same sequence: their running
  // digests agree on the common prefix. A replica that installed a
  // checkpoint skipped part of the sequence and is compared by nothing.
  void check_agreement() {
    std::size_t ref = 0;
    for (NodeId i = 1; i < kReplicas; ++i) {
      if (installed_[i]) continue;
      if (ref == 0) {
        ref = i;
        continue;
      }
      const std::size_t n = std::min(prefix_[ref].size(), prefix_[i].size());
      if (n > 0 && prefix_[ref][n - 1] != prefix_[i][n - 1]) {
        report_.fail("replicas " + std::to_string(ref) + " and " + std::to_string(i) +
                     " decided different sequences");
      }
    }
  }

  const std::uint64_t input_seed_;
  SpanLog& spans_;
  Report& report_;
  const DurationMicros window_;

  sim::Simulator sim_;
  obs::Registry registry_;
  obs::Tracer tracer_;
  std::unique_ptr<net::SimNetwork> net_;
  std::unique_ptr<crypto::KeyStore> keys_;
  std::vector<std::unique_ptr<smr::PbftSmr>> replicas_;
  std::vector<std::vector<std::uint64_t>> prefix_;
  std::vector<std::vector<std::uint8_t>> seen_;
  bool installed_[kReplicas] = {};
  std::vector<Op> ops_;

  TimeMicros t0_ = 0, crash_at_ = 0, end_ = 0;
  std::uint64_t events_ = 0, msgs_ = 0, bytes_ = 0, dropped_ = 0, blocked_ = 0, sha_ = 0;
  std::uint64_t peak_live_ = 0;
  std::size_t flows_peak_ = 0;
  std::uint64_t completed_ = 0;
  double failover_ms_ = 0;
  double measured_wall_ns_ = 0;
  std::vector<double> chunk_ns_;
};

}  // namespace

Report run_pbft_failover(const RunOptions& opt) {
  Report report;
  report.workload = "pbft_failover";
  report.seed = opt.seed;
  if (!opt.traced) {
    SpanLog spans(false);
    std::vector<double> setup_s;
    auto timed_setup = [&](int rep) {
      const std::int64_t t0 = host_ns();
      auto w = std::make_unique<PbftWorkload>(opt, rep, spans, report);
      w->setup();
      setup_s.push_back(static_cast<double>(host_ns() - t0) / 1e9);
      return w;
    };
    // Pass-major order, so the passes over one failover's inputs lie far
    // apart in time and rarely share a stretch of interference.
    std::vector<std::vector<std::vector<double>>> chunk_ns(kReps);  // [rep][pass]
    std::vector<std::vector<std::uint64_t>> work(kReps);
    Pooled pooled;
    for (int pass = 0; pass < kPasses && report.correct; ++pass) {
      for (int rep = 0; rep < kReps && report.correct; ++rep) {
        for (int s = 1; s < kSetupsPerPass; ++s) timed_setup(rep);
        std::unique_ptr<PbftWorkload> w = timed_setup(rep);
        w->measure();
        chunk_ns[rep].push_back(w->chunk_ns());
        if (!work[rep].empty() && w->work() != work[rep]) {
          report.fail("two passes of a failover on the same inputs did different work");
        }
        work[rep] = w->work();
        if (pass + 1 == kPasses) w->pool(pooled, fastest_chunks_ns(chunk_ns[rep]));
      }
    }
    pooled.report(report);
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced run, on the first repetition's inputs: an untraced pass gives the
  // exact counts and the baseline wall time, a traced pass the host times
  // and tracer-derived stage latencies.
  SpanLog spans(true);
  SpanLog untraced_spans(false);
  double untraced_wall = 0;
  {
    PbftWorkload a(opt, 0, untraced_spans, report);
    a.setup();
    a.measure();
    Pooled pooled;
    a.pool(pooled, a.measured_wall_ns());
    pooled.report(report);
    a.report_layer_counts();
    untraced_wall = a.measured_wall_ns();
    report.set("sim.bare_event_ns", probe_bare_event_ns(a.simulator(), spans), "ns");
    report.set("net.bare_msg_ns", probe_bare_msg_ns(a.network(), 1000, spans), "ns");
    report.set("crypto.sha256_ns_per_kib", probe_sha256_ns_per_kib(a.op_sizes(), spans), "ns");
  }
  {
    PbftWorkload b(opt, 0, spans, report);
    b.setup();
    // Sized for every op's decide at every replica plus the batch-level
    // points, so no event of the measured phase is evicted.
    b.tracer().enable(std::size_t{1} << 17);
    {
      SpanLog::Scope scope(spans, "measure");
      b.measure();
    }
    b.report_layer_trace();
    report.set("obs.trace_overhead_frac", b.measured_wall_ns() / untraced_wall - 1.0, "ratio");
  }
  if (!opt.trace_out.empty() && !spans.write_chrome(opt.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", opt.trace_out.c_str());
  }
  return report;
}

}  // namespace perfbench
