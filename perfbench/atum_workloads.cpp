// bcast_steady and membership_churn: a whole Atum deployment driven through
// the §3.3 API (AtumSystem::deploy, AtumNode::join/leave/broadcast/
// set_deliver) plus Simulator::run_until.
//
// Open loop: every broadcast, join and leave of the measured phase is
// scheduled on the simulator at its due time before the phase starts, and
// each one checks that it fired exactly then. An op is one (broadcast,
// eligible receiver) delivery; its latency runs from the broadcast's due
// time to the delivery at that receiver.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>

#include "core/atum.h"
#include "crypto/sha256.h"
#include "obs/registry.h"
#include "overlay/gossip.h"
#include "workloads.h"

namespace perfbench {

using namespace atum;

namespace {

constexpr std::uint32_t kBcastMagic = 0xB0CA5701;
constexpr std::size_t kPayloadBytes = 128;
// The system's own seeds stay constant; --seed only drives the inputs.
constexpr std::uint64_t kSystemSeed = 0xa70aULL;
constexpr std::uint64_t kInputSalt = 0x6e7b0c1dULL;
constexpr DurationMicros kChunk = seconds(1.0);
constexpr int kSetupReps = 30;
// Leave handling as the scenario engine does it: announce again every 10 s
// while still a member; after two re-announcements, stop the node.
constexpr DurationMicros kLeaveRetry = seconds(10.0);
constexpr int kLeaveAnnouncements = 3;

struct AtumSpec {
  const char* name;
  std::size_t nodes;
  DurationMicros bcast_interval;
  double churn_per_min;       // joins and leaves each, as a share of `nodes`
  double sim_per_host_s;      // sim seconds of send window per requested second
  DurationMicros drain;
};

// The scenario presets' parameters (src/scenario/presets.cpp base_spec).
core::Params preset_params() {
  core::Params p;
  p.hc = 3;
  p.rwl = 6;
  p.gmin = 7;
  p.gmax = 14;
  p.engine = smr::EngineKind::kAsync;
  p.heartbeat_period = seconds(10.0);
  p.verify_signatures = false;
  return p;
}

struct Bcast {
  TimeMicros due = 0;
  NodeId origin = kInvalidNode;
  std::uint64_t local_seq = 0;  // the origin's own broadcast counter
  Bytes payload;
  std::vector<NodeId> receivers;     // eligible when it was sent
  GroupId origin_group_id = kInvalidGroup;
  std::vector<NodeId> origin_group;  // the origin's vgroup when it was sent
  std::vector<TimeMicros> got;       // per node id, -1 = not delivered
};

struct Join {
  NodeId id = kInvalidNode;
  TimeMicros due = 0;
  TimeMicros done = -1;
};

struct Leave {
  NodeId id = kInvalidNode;
  TimeMicros last_attempt = 0;
  int announcements = 0;
  bool done = false;
  bool forced = false;
};

// Counters read at the start and the end of the measured phase.
struct Counters {
  std::uint64_t events = 0, msgs = 0, bytes = 0, dropped = 0, blocked = 0, sha = 0;
  std::uint64_t frames = 0, saved = 0;
  std::uint64_t smr_ops = 0, smr_batches = 0, smr_msgs = 0, view_changes = 0;
  std::uint64_t checkpoints = 0, installs = 0;
};

class AtumWorkload {
 public:
  AtumWorkload(const AtumSpec& spec, const RunOptions& opt, SpanLog& spans, Report& report)
      : spec_(spec),
        opt_(opt),
        spans_(spans),
        report_(report),
        rng_(opt.seed ^ kInputSalt),
        window_(seconds(spec.sim_per_host_s * opt.seconds)),
        join_interval_(spec.churn_per_min > 0
                           ? static_cast<DurationMicros>(
                                 60e6 / (spec.churn_per_min * static_cast<double>(spec.nodes)))
                           : 0),
        planned_joins_(join_interval_ > 0 ? static_cast<std::size_t>(window_ / join_interval_)
                                          : 0),
        id_space_(spec.nodes + planned_joins_) {}

  // Build, deploy, one warm-up heartbeat period, and the open-loop schedule
  // of the measured phase.
  void setup() {
    SpanLog::Scope scope(spans_, "setup");
    sys_ = std::make_unique<core::AtumSystem>(preset_params(), net::NetworkConfig::datacenter(),
                                              kSystemSeed);
    std::vector<NodeId> ids;
    for (NodeId i = 0; i < spec_.nodes; ++i) ids.push_back(i);
    sys_->deploy(ids);
    for (NodeId id : ids) wire(id);
    alive_.assign(id_space_, 0);
    leave_requested_.assign(id_space_, 0);
    for (NodeId id : ids) alive_[id] = 1;
    next_id_ = spec_.nodes;
    sim().run_until(sim().now() + sys_->params().heartbeat_period);
    t0_ = sim().now();
    end_ = t0_ + window_ + spec_.drain;
    schedule_ops();
  }

  void measure() {
    before_ = read_counters();
    const std::int64_t wall0 = host_ns();
    for (TimeMicros t = t0_ + kChunk; t <= end_ && report_.correct; t += kChunk) {
      {
        SpanLog::Scope scope(spans_, "sim.run_until");
        advance_to(t);
      }
      peak_live_ = std::max(peak_live_, sim().live_events());
      flows_peak_ = std::max(flows_peak_, sys_->network().flow_count());
      poll_leaves();
    }
    measured_wall_ns_ = static_cast<double>(host_ns() - wall0);
    after_ = read_counters();
    check_membership();
  }

  core::AtumSystem& system() { return *sys_; }
  double measured_wall_ns() const { return measured_wall_ns_; }

  // End-to-end metrics and op accounting (any run).
  void report_end_to_end() {
    Latencies lat;
    std::vector<OpTimes> timeline;
    std::uint64_t completed = 0;
    for (const Bcast& b : bcasts_) {
      for (NodeId r : b.receivers) {
        if (leave_requested_[r]) continue;  // left later: not a receiver that stayed
        const TimeMicros got = b.got[r];
        timeline.push_back(OpTimes{b.due, got});
        if (got >= 0) {
          lat.add(static_cast<double>(got - b.due) / 1e3);
          ++completed;
        } else {
          lat.add_failed();
        }
      }
    }
    completed_ops_ = completed;
    std::uint64_t join_failed = 0, leave_failed = 0;
    for (const Join& j : joins_) {
      if (j.done < 0) {
        join_lat_.add_failed();
        ++join_failed;
      } else {
        join_lat_.add(static_cast<double>(j.done - j.due) / 1e3);
      }
    }
    for (const Leave& l : leaves_) leave_failed += (l.forced || !l.done) ? 1 : 0;

    report_.attempted =
        lat.samples() + joins_.size() + leaves_.size() + groups_checked_ + members_checked_;
    report_.failed =
        lat.failed() + join_failed + leave_failed + groups_out_of_bounds_ + members_stale_ +
        members_lost_;
    if (completed == 0) report_.fail("no broadcast was delivered");
    const double cap_ms = static_cast<double>(end_ - t0_) / 1e3;
    report_.set("sim_s_per_host_s", to_seconds(end_ - t0_) / (measured_wall_ns_ / 1e9), "sim_s/s");
    report_.set_percentile("latency_p50_ms", lat, 0.50, cap_ms);
    report_.set_percentile("latency_p99_ms", lat, 0.99, cap_ms);
    report_.set("completed_frac",
                1.0 - static_cast<double>(report_.failed) / static_cast<double>(report_.attempted),
                "ratio");
    report_.set("net_bytes_per_op", per_op(after_.bytes - before_.bytes), "B");
    report_.set("unavailable_ms", longest_stall_ms(timeline), "ms");
    if (!joins_.empty()) {
      report_.set_percentile("core.join_p50_ms", join_lat_, 0.50, cap_ms);
      report_.set_percentile("core.join_p95_ms", join_lat_, 0.95, cap_ms);
    }
  }

  // Per-layer counts; exact from run to run (read from the untraced run).
  void report_layer_counts() {
    report_.set("sim.events_per_op", per_op(after_.events - before_.events), "events");
    report_.set("sim.peak_live_events", static_cast<double>(peak_live_), "events");
    report_.set("sim.slot_count", static_cast<double>(sim().slot_count()), "slots");
    report_.set("net.msgs_per_op", per_op(after_.msgs - before_.msgs), "msgs");
    report_.set("net.dropped", static_cast<double>(after_.dropped - before_.dropped), "msgs");
    report_.set("net.blocked", static_cast<double>(after_.blocked - before_.blocked), "msgs");
    report_.set("net.flows_peak", static_cast<double>(flows_peak_), "flows");
    report_.set("overlay.frames_per_op", per_op(after_.frames - before_.frames), "frames");
    const std::uint64_t frames = after_.frames - before_.frames;
    report_.set("overlay.coalesce_saved_frac",
                frames == 0 ? 0.0
                            : static_cast<double>(after_.saved - before_.saved) /
                                  static_cast<double>(frames),
                "ratio");
    const std::uint64_t batches = after_.smr_batches - before_.smr_batches;
    report_.set("smr.ops_per_batch",
                batches == 0 ? 0.0
                             : static_cast<double>(after_.smr_ops - before_.smr_ops) /
                                   static_cast<double>(batches),
                "ops");
    report_.set("smr.msgs_per_op", per_op(after_.smr_msgs - before_.smr_msgs), "msgs");
    report_.set("smr.view_changes", static_cast<double>(after_.view_changes - before_.view_changes),
                "count");
    report_.set("smr.checkpoints_stable",
                static_cast<double>(after_.checkpoints - before_.checkpoints), "count");
    report_.set("smr.checkpoint_installs", static_cast<double>(after_.installs - before_.installs),
                "count");
    report_.set("crypto.sha256_per_op", per_op(after_.sha - before_.sha), "digests");
    const auto groups = sys_->group_map();
    std::size_t gmin = SIZE_MAX, gmax = 0;
    for (const auto& [g, members] : groups) {
      gmin = std::min(gmin, members.size());
      gmax = std::max(gmax, members.size());
    }
    report_.set("group.size_min", groups.empty() ? 0.0 : static_cast<double>(gmin), "nodes");
    report_.set("group.size_max", static_cast<double>(gmax), "nodes");
    report_.set("group.count", static_cast<double>(groups.size()), "groups");
    report_.set("group.out_of_bounds", static_cast<double>(groups_out_of_bounds_), "groups");
    report_.set("group.stale_members", static_cast<double>(members_stale_), "nodes");
    report_.set("group.lost_members", static_cast<double>(members_lost_), "nodes");
  }

  // Per-layer host time and tracer-derived latencies (traced run).
  void report_layer_trace() {
    report_.set("sim.host_ns_per_event",
                spans_.total_ns("sim.run_until") /
                    static_cast<double>(std::max<std::uint64_t>(1, after_.events - before_.events)),
                "ns");
    const auto per_call_us = [this](const char* name) {
      const std::uint64_t n = spans_.count(name);
      return n == 0 ? 0.0 : spans_.total_ns(name) / static_cast<double>(n) / 1e3;
    };
    report_.set("core.host_us_per_broadcast_call", per_call_us("core.broadcast"), "us");
    if (!joins_.empty()) {
      report_.set("core.host_us_per_join_call", per_call_us("core.join"), "us");
    }

    const std::vector<obs::TraceEvent> events = sys_->tracer().snapshot();
    // Bench broadcast by (origin, origin-local seq), to join kSend events.
    std::map<std::pair<NodeId, std::uint64_t>, const Bcast*> by_origin_seq;
    for (const Bcast& b : bcasts_) by_origin_seq[{b.origin, b.local_seq}] = &b;
    struct KeyInfo {
      const Bcast* bcast = nullptr;
      TimeMicros sent = -1;
      TimeMicros origin_decide = -1;
      std::map<GroupId, std::uint64_t> group_hops;  // vgroup -> hops from the origin's
      std::map<NodeId, std::uint64_t> node_hops;    // node -> hops of its accepted copy
    };
    std::map<std::uint64_t, KeyInfo> keys;
    for (const obs::TraceEvent& e : events) {
      if (e.point != obs::TracePoint::kSend) continue;
      auto it = by_origin_seq.find({e.node, e.a});
      if (it == by_origin_seq.end()) continue;
      KeyInfo& k = keys[e.key];
      k.bcast = it->second;
      k.sent = e.at;
      k.group_hops[it->second->origin_group_id] = 0;
    }
    // Hops: a node accepts a broadcast when a majority of one neighbour
    // vgroup vouched for it (kVouch carries that vgroup); it sits one hop
    // further from the origin's vgroup than the vgroup it accepted from.
    Latencies origin_order, spread, hops;
    for (const obs::TraceEvent& e : events) {
      auto it = keys.find(e.key);
      if (it == keys.end()) continue;
      KeyInfo& k = it->second;
      if (e.point == obs::TracePoint::kVouch && !k.node_hops.contains(e.node)) {
        auto from = k.group_hops.find(e.b);
        if (from == k.group_hops.end()) continue;
        const std::uint64_t h = from->second + 1;
        k.node_hops[e.node] = h;
        auto [g, fresh] = k.group_hops.try_emplace(sys_->node(e.node).group_id(), h);
        if (!fresh) g->second = std::min(g->second, h);
      }
      if (e.point != obs::TracePoint::kDeliver) continue;
      if (e.node == k.bcast->origin) {
        k.origin_decide = e.at;
        origin_order.add(static_cast<double>(e.at - k.sent) / 1e3);
      } else if (k.origin_decide >= 0 &&
                 !std::binary_search(k.bcast->origin_group.begin(), k.bcast->origin_group.end(),
                                     e.node)) {
        spread.add(static_cast<double>(e.at - k.origin_decide) / 1e3);
        auto h = k.node_hops.find(e.node);
        if (h != k.node_hops.end()) hops.add(static_cast<double>(h->second));
      }
    }
    const double cap_ms = static_cast<double>(end_ - t0_) / 1e3;
    report_.set("overlay.hops_p50", hops.percentile(0.5), "hops", hops.samples());
    report_.set("overlay.hops_max", hops.percentile(1.0), "hops", hops.samples());
    report_.set_percentile("overlay.spread_ms_p50", spread, 0.50, cap_ms, false);
    report_.set_percentile("overlay.spread_ms_p99", spread, 0.99, cap_ms, false);
    report_.set("core.origin_order_ms_p50", origin_order.percentile(0.5), "ms",
                origin_order.samples());
    SmrStages st = smr_stages(events);
    report_.set_percentile("smr.queue_ms_p50", st.queue, 0.50, cap_ms, false);
    report_.set_percentile("smr.order_ms_p50", st.order, 0.50, cap_ms, false);
    report_.set_percentile("smr.exec_ms_p50", st.exec, 0.50, cap_ms, false);
  }

  std::size_t id_space() const { return id_space_; }

 private:
  sim::Simulator& sim() { return sys_->simulator(); }

  double per_op(std::uint64_t n) const {
    return completed_ops_ == 0 ? 0.0
                               : static_cast<double>(n) / static_cast<double>(completed_ops_);
  }

  void wire(NodeId id) {
    core::AtumNode& n = sys_->node(id);
    n.set_forward(overlay::forward_cycles({0, 1}));
    n.set_deliver([this, id](NodeId origin, const net::Payload& payload) {
      on_deliver(id, origin, payload);
    });
  }

  bool eligible(NodeId id) {
    return id < id_space_ && !leave_requested_[id] && sys_->has_node(id) &&
           sys_->node(id).joined();
  }

  std::optional<NodeId> sample_live() {
    for (int attempt = 0; attempt < 256; ++attempt) {
      const NodeId id = rng_.next_below(next_id_);
      if (eligible(id)) return id;
    }
    return std::nullopt;
  }

  void schedule_ops() {
    for (TimeMicros due = t0_ + spec_.bcast_interval / 2; due < t0_ + window_;
         due += spec_.bcast_interval) {
      const std::size_t k = bcasts_.size();
      bcasts_.push_back(Bcast{});
      bcasts_[k].due = due;
      sim().schedule_at(due, [this, k] { fire_broadcast(k); });
    }
    for (std::size_t j = 0; j < planned_joins_; ++j) {
      const TimeMicros due = t0_ + join_interval_ / 4 + static_cast<TimeMicros>(j) * join_interval_;
      joins_.push_back(Join{spec_.nodes + j, due, -1});
      sim().schedule_at(due, [this, j] { fire_join(j); });
      const TimeMicros leave_due = due + join_interval_ / 2;
      sim().schedule_at(leave_due, [this, leave_due] { fire_leave(leave_due); });
    }
  }

  void on_time(TimeMicros due, const char* what) {
    if (sim().now() != due) {
      report_.fail(std::string(what) + " fired at " + std::to_string(sim().now()) +
                   " instead of its due time " + std::to_string(due));
    }
  }

  void fire_broadcast(std::size_t k) {
    Bcast& b = bcasts_[k];
    on_time(b.due, "broadcast");
    const std::optional<NodeId> origin = sample_live();
    if (!origin) {
      report_.fail("no live origin for a broadcast");
      return;
    }
    b.origin = *origin;
    b.local_seq = ++origin_seq_[b.origin];
    b.payload = make_body(kBcastMagic, k, b.origin, kPayloadBytes, opt_.seed);
    for (NodeId id = 0; id < next_id_; ++id) {
      if (eligible(id)) b.receivers.push_back(id);
    }
    core::AtumNode& node = sys_->node(b.origin);
    b.origin_group_id = node.group_id();
    b.origin_group = node.vgroup().members();
    std::sort(b.origin_group.begin(), b.origin_group.end());
    b.got.assign(id_space_, -1);
    fired_bcasts_ = k + 1;
    SpanLog::Scope scope(spans_, "core.broadcast");
    node.broadcast(b.payload);
  }

  void fire_join(std::size_t j) {
    Join& join = joins_[j];
    on_time(join.due, "join");
    const std::optional<NodeId> contact = sample_live();
    if (!contact) {
      report_.fail("no live contact for a join");
      return;
    }
    sys_->add_node(join.id);
    wire(join.id);
    next_id_ = std::max(next_id_, join.id + 1);
    pending_joins_.push_back(j);
    SpanLog::Scope scope(spans_, "core.join");
    sys_->node(join.id).join(*contact);
  }

  void fire_leave(TimeMicros due) {
    on_time(due, "leave");
    const std::optional<NodeId> victim = sample_live();
    if (!victim) {
      report_.fail("no live member to leave");
      return;
    }
    leave_requested_[*victim] = 1;
    leaves_.push_back(Leave{*victim, sim().now(), 1, false, false});
    SpanLog::Scope scope(spans_, "core.leave");
    sys_->node(*victim).leave();
  }

  void on_deliver(NodeId self, NodeId origin, const net::Payload& payload) {
    BodyHeader h;
    if (!read_body_header(payload, kBcastMagic, h) || h.index >= fired_bcasts_) {
      report_.fail("node " + std::to_string(self) + " delivered a payload never broadcast");
      return;
    }
    Bcast& b = bcasts_[h.index];
    if (origin != b.origin || h.origin != b.origin) {
      report_.fail("broadcast " + std::to_string(h.index) + " delivered with a wrong origin");
    }
    if (payload.size() != b.payload.size() ||
        std::memcmp(payload.data(), b.payload.data(), b.payload.size()) != 0) {
      report_.fail("broadcast " + std::to_string(h.index) + " delivered with altered bytes");
    }
    if (self >= b.got.size()) {
      report_.fail("delivery at unknown node " + std::to_string(self));
      return;
    }
    if (b.got[self] >= 0) {
      report_.fail("broadcast " + std::to_string(h.index) + " delivered twice at node " +
                   std::to_string(self));
    }
    b.got[self] = sim().now();
  }

  // Chunk boundary [.., t]: the join flag flips inside an event, so while
  // any join is pending the loop steps event by event and checks after each.
  // A sentinel event at t stops the stepping exactly where run_until would.
  void advance_to(TimeMicros t) {
    if (joins_.empty()) {
      sim().run_until(t);
      return;
    }
    bool reached = false;
    sim().schedule_at(t, [&reached] { reached = true; });
    while (!reached && sim().step()) {
      if (!pending_joins_.empty()) check_joins();
    }
  }

  void check_joins() {
    std::size_t kept = 0;
    for (std::size_t j : pending_joins_) {
      Join& join = joins_[j];
      if (sys_->node(join.id).joined()) {
        join.done = sim().now();
        alive_[join.id] = 1;
      } else {
        pending_joins_[kept++] = j;
      }
    }
    pending_joins_.resize(kept);
  }

  void poll_leaves() {
    const TimeMicros now = sim().now();
    for (Leave& l : leaves_) {
      if (l.done) continue;
      core::AtumNode& n = sys_->node(l.id);
      if (!n.joined()) {
        l.done = true;
        alive_[l.id] = 0;
      } else if (now - l.last_attempt >= kLeaveRetry) {
        l.last_attempt = now;
        if (l.announcements >= kLeaveAnnouncements) {
          l.forced = true;
          l.done = true;
          alive_[l.id] = 0;
          n.stop();
        } else {
          // Superseded by a concurrent reconfiguration: announce again.
          ++l.announcements;
          SpanLog::Scope scope(spans_, "core.leave");
          n.leave();
        }
      }
    }
  }

  // End of the drain, in three parts:
  //  - group_map() holds only nodes the benchmark's own join/leave ledger
  //    says are in; any other member is a violation. A node the ledger says
  //    is in but that is no longer a member (it was removed without asking)
  //    is a lost member, a failed check.
  //  - Live members of a vgroup at the same SMR epoch hold the same view; a
  //    mismatch is a violation (agreement). A member behind its vgroup's
  //    newest epoch, or missing from the newest view, is a failed check:
  //    lagging replicas are a known liveness gap, not an agreement break.
  //    (A view may also name joiners that were admitted but never came up;
  //    those joins count as failed.)
  //  - A vgroup outside [gmin, gmax] is a failed sizing check: the
  //    node-level runtime has no split or merge, so churn drifts sizes.
  void check_membership() {
    const core::Params& p = sys_->params();
    const auto groups = sys_->group_map();
    std::vector<char> seen(id_space_, 0);
    groups_checked_ = groups.size();
    for (const auto& [g, members] : groups) {
      if (members.size() < p.gmin || members.size() > p.gmax) ++groups_out_of_bounds_;
      std::map<std::uint64_t, std::vector<NodeId>> view_at;  // epoch -> view
      for (NodeId m : members) {
        seen[m] = 1;
        std::vector<NodeId> view = sys_->node(m).vgroup().members();
        std::sort(view.begin(), view.end());
        auto [it, fresh] = view_at.try_emplace(sys_->node(m).smr_epoch(), view);
        if (!fresh && it->second != view) {
          report_.fail("members of vgroup " + std::to_string(g) + " at epoch " +
                       std::to_string(it->first) + " disagree on its members");
        }
      }
      const auto& [newest, newest_view] = *view_at.rbegin();
      for (NodeId m : members) {
        if (sys_->node(m).smr_epoch() != newest ||
            !std::binary_search(newest_view.begin(), newest_view.end(), m)) {
          ++members_stale_;
        }
      }
    }
    for (NodeId id = 0; id < id_space_; ++id) {
      if (seen[id] && !alive_[id]) {
        report_.fail("node " + std::to_string(id) +
                     " is a member although it never joined or has left");
      }
      members_checked_ += alive_[id] ? 1 : 0;
      members_lost_ += (alive_[id] && !seen[id]) ? 1 : 0;
    }
  }

  Counters read_counters() {
    Counters c;
    const net::NetworkStats& ns = sys_->network().stats();
    c.events = sim().executed_events();
    c.msgs = ns.messages_sent;
    c.bytes = ns.bytes_sent;
    c.dropped = ns.messages_dropped;
    c.blocked = ns.messages_blocked;
    c.sha = crypto::sha256_digest_count();
    for (NodeId id = 0; id < next_id_; ++id) {
      if (!sys_->has_node(id)) continue;
      const overlay::SendCoalescer& co = sys_->node(id).coalescer();
      c.frames += co.frames_enqueued();
      c.saved += co.messages_saved();
    }
    obs::Registry& reg = sys_->metrics();
    c.smr_ops = reg.value("smr.ops_decided");
    c.smr_batches = reg.value("smr.batches_executed");
    c.smr_msgs = reg.value("smr.pre_prepares") + reg.value("smr.prepares") +
                 reg.value("smr.commits");
    c.view_changes = reg.value("smr.view_changes");
    c.checkpoints = reg.value("smr.checkpoints_stable");
    c.installs = reg.value("smr.checkpoint_installs");
    return c;
  }

  const AtumSpec& spec_;
  const RunOptions& opt_;
  SpanLog& spans_;
  Report& report_;
  Rng rng_;
  const DurationMicros window_;
  const DurationMicros join_interval_;
  const std::size_t planned_joins_;
  const std::size_t id_space_;

  std::unique_ptr<core::AtumSystem> sys_;
  NodeId next_id_ = 0;
  std::vector<char> alive_;            // the benchmark's membership ledger
  std::vector<char> leave_requested_;
  std::map<NodeId, std::uint64_t> origin_seq_;
  std::vector<Bcast> bcasts_;
  std::size_t fired_bcasts_ = 0;
  std::vector<Join> joins_;
  std::vector<std::size_t> pending_joins_;
  std::vector<Leave> leaves_;
  Latencies join_lat_;

  TimeMicros t0_ = 0;
  TimeMicros end_ = 0;
  Counters before_, after_;
  std::uint64_t peak_live_ = 0;
  std::size_t flows_peak_ = 0;
  double measured_wall_ns_ = 0;
  std::uint64_t completed_ops_ = 0;
  std::size_t groups_checked_ = 0;
  std::size_t groups_out_of_bounds_ = 0;
  std::size_t members_checked_ = 0;
  std::size_t members_stale_ = 0;
  std::size_t members_lost_ = 0;
};

Report run_atum(const AtumSpec& spec, const RunOptions& opt) {
  Report report;
  report.workload = spec.name;
  report.seed = opt.seed;
  if (!opt.traced) {
    // Set up several times and report the median: half the set-ups before
    // the measured phase (which runs on the last of them) and half after
    // it, so they sample the host at both ends of the run.
    SpanLog spans(false);
    std::vector<double> setup_s;
    auto timed_setup = [&] {
      const std::int64_t t0 = host_ns();
      auto w = std::make_unique<AtumWorkload>(spec, opt, spans, report);
      w->setup();
      setup_s.push_back(static_cast<double>(host_ns() - t0) / 1e9);
      return w;
    };
    for (int r = 1; r < kSetupReps / 2; ++r) timed_setup();
    {
      auto w = timed_setup();
      w->measure();
      w->report_end_to_end();
    }
    while (static_cast<int>(setup_s.size()) < kSetupReps) timed_setup();
    report.set("setup_s", median(setup_s), "s", setup_s.size());
    report.set("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  // Traced run: an untraced pass gives the exact counts and the baseline
  // wall time; a second pass over the same inputs with obs::Tracer on and
  // spans recorded gives host times and tracer-derived latencies.
  SpanLog spans(true);
  SpanLog untraced_spans(false);
  double untraced_wall = 0;
  {
    AtumWorkload a(spec, opt, untraced_spans, report);
    a.setup();
    a.measure();
    a.report_end_to_end();
    a.report_layer_counts();
    untraced_wall = a.measured_wall_ns();
    // Calibration probes on the still-live workload.
    report.set("sim.bare_event_ns", probe_bare_event_ns(a.system().simulator(), spans), "ns");
    report.set("net.bare_msg_ns",
               probe_bare_msg_ns(a.system().network(), static_cast<NodeId>(a.id_space()) + 1000,
                                 spans),
               "ns");
    report.set("crypto.sha256_ns_per_kib", probe_sha256_ns_per_kib({kPayloadBytes}, spans), "ns");
  }
  {
    AtumWorkload b(spec, opt, spans, report);
    b.setup();
    b.system().tracer().enable(8192);
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

}  // namespace

Report run_bcast_steady(const RunOptions& opt) {
  static const AtumSpec spec{"bcast_steady", 2000, seconds(2.0), 0.0, 2.6, seconds(5.0)};
  return run_atum(spec, opt);
}

Report run_membership_churn(const RunOptions& opt) {
  static const AtumSpec spec{"membership_churn", 1500, seconds(20.0), 0.20, 16.0, seconds(35.0)};
  return run_atum(spec, opt);
}

}  // namespace perfbench
