// Derived metrics shared by the workloads: SMR pipeline stages from a tracer
// snapshot, and the longest progress stall of an op timeline.
#include <algorithm>
#include <unordered_map>
#include <utility>

#include "workloads.h"

namespace perfbench {

using namespace atum;

namespace {

struct PairHash {
  std::size_t operator()(const std::pair<std::uint64_t, std::uint64_t>& p) const noexcept {
    return static_cast<std::size_t>(mix64(p.first) ^ p.second);
  }
};

using PairKey = std::pair<std::uint64_t, std::uint64_t>;

}  // namespace

SmrStages smr_stages(const std::vector<obs::TraceEvent>& events) {
  // Indexes over the snapshot, which is sorted by (sim time, record order).
  std::unordered_map<PairKey, const obs::TraceEvent*, PairHash> decide;  // (node, op key)
  std::unordered_map<PairKey, std::vector<const obs::TraceEvent*>, PairHash> commits;  // (node, seq)
  std::unordered_map<std::uint64_t, std::vector<std::int64_t>> pre_prepares;  // batch key
  for (const obs::TraceEvent& e : events) {
    switch (e.point) {
      case obs::TracePoint::kDecide:
        decide.try_emplace({e.node, e.key}, &e);
        break;
      case obs::TracePoint::kCommit:
        commits[{e.node, e.a}].push_back(&e);
        break;
      case obs::TracePoint::kPrePrepare:
        pre_prepares[e.key].push_back(e.at);
        break;
      default:
        break;
    }
  }
  SmrStages out;
  for (const obs::TraceEvent& e : events) {
    if (e.point != obs::TracePoint::kPropose) continue;
    auto d = decide.find({e.node, e.key});
    if (d == decide.end() || d->second->at < e.at) continue;  // never decided here
    const std::int64_t t3 = d->second->at;
    auto c = commits.find({e.node, d->second->a});
    if (c == commits.end()) continue;
    // The proposer's latest commit vote for that seq before its decide
    // (an instance may reuse seq numbers after a reconfiguration).
    const obs::TraceEvent* commit = nullptr;
    for (const obs::TraceEvent* ce : c->second) {
      if (ce->at <= t3 && ce->at >= e.at) commit = ce;
    }
    if (commit == nullptr) continue;
    const std::int64_t t2 = commit->at;
    auto p = pre_prepares.find(commit->key);
    if (p == pre_prepares.end()) continue;
    std::int64_t t1 = -1;
    for (std::int64_t at : p->second) {
      if (at <= t2 && at >= e.at) t1 = at;
    }
    if (t1 < 0) continue;
    out.queue.add(static_cast<double>(t1 - e.at) / 1e3);
    out.order.add(static_cast<double>(t2 - t1) / 1e3);
    out.exec.add(static_cast<double>(t3 - t2) / 1e3);
  }
  return out;
}

double longest_stall_ms(const std::vector<OpTimes>& ops) {
  // (time, +1 due / -1 completed); completions sort first at equal times.
  std::vector<std::pair<TimeMicros, int>> timeline;
  timeline.reserve(ops.size() * 2);
  for (const OpTimes& op : ops) {
    if (op.done < 0) continue;  // failed ops are counted, not timed
    timeline.emplace_back(op.due, +1);
    timeline.emplace_back(op.done, -1);
  }
  std::sort(timeline.begin(), timeline.end());
  std::int64_t outstanding = 0;
  TimeMicros last_progress = 0;
  TimeMicros longest = 0;
  for (const auto& [t, delta] : timeline) {
    if (delta > 0) {
      if (outstanding == 0) last_progress = t;
      ++outstanding;
    } else {
      longest = std::max(longest, t - last_progress);
      last_progress = t;
      --outstanding;
    }
  }
  return static_cast<double>(longest) / 1e3;
}

}  // namespace perfbench
