#include "exp/contention.hh"

#include <algorithm>
#include <limits>
#include <utility>

#include "net/bbr.hh"
#include "net/cubic.hh"
#include "util/require.hh"

namespace puffer::exp {

namespace {

/// Boundary tolerance for the world clock: dt is clipped to the next
/// arrival/wake boundary, so W lands on boundaries only up to one rounding
/// error; treating anything this close as "due" keeps the loop from taking
/// denormal-sized steps. Deterministic — purely a function of the FP values.
constexpr double kBoundaryEpsS = 1e-9;

std::unique_ptr<net::CongestionControl> make_cc(const bool use_cubic) {
  if (use_cubic) {
    return std::make_unique<net::CubicModel>();
  }
  return std::make_unique<net::BbrModel>();
}

net::ThroughputTrace scale_trace(const net::ThroughputTrace& trace,
                                 const double scale) {
  std::vector<double> rates = trace.rates();
  for (double& r : rates) {
    r *= scale;
  }
  return net::ThroughputTrace{std::move(rates), trace.segment_duration()};
}

}  // namespace

ContentionSpec make_contention_spec(const std::string& topology,
                                    const int group_size) {
  ContentionSpec spec;
  spec.group_size = group_size;
  if (topology == "edge") {
    // CDN edge uplink: big FIFO, mild oversubscription, BBR everywhere.
    spec.fair_queue = false;
    spec.capacity_scale = 0.7;
    spec.queue_bdp = 2.0;
    spec.cc = "bbr";
  } else if (topology == "tower") {
    // Cell tower: heavier oversubscription, deeper buffer, mixed CC — the
    // regime where FIFO crowd-out between CUBIC and BBR shows up.
    spec.fair_queue = false;
    spec.capacity_scale = 0.55;
    spec.queue_bdp = 3.0;
    spec.cc = "mixed";
  } else if (topology == "wifi") {
    // Home AP with per-flow fair queuing (fq_codel-style scheduling).
    spec.fair_queue = true;
    spec.capacity_scale = 0.8;
    spec.queue_bdp = 1.5;
    spec.cc = "bbr";
  } else {
    require(false, "make_contention_spec: unknown topology '" + topology +
                       "' (want edge|tower|wifi)");
  }
  return spec;
}

ContentionGroupTask::ContentionGroupTask(std::vector<Member> members,
                                         const ContentionSpec& spec,
                                         net::NetworkPath shared_sample,
                                         const TrialConfig& config)
    : spec_(spec),
      shared_trace_(scale_trace(
          shared_sample.trace,
          spec.capacity_scale * static_cast<double>(members.size()))) {
  require(!members.empty(), "ContentionGroupTask: empty group");
  require(spec.cc == "bbr" || spec.cc == "cubic" || spec.cc == "mixed",
          "ContentionGroupTask: cc must be bbr|cubic|mixed");

  // Shared drop-tail buffer: queue_bdp bandwidth-delay products at the
  // scaled mean rate and the group's mean propagation RTT.
  double mean_rtt_s = 0.0;
  for (const Member& m : members) {
    require(m.plan != nullptr && m.plan->path.has_value(),
            "ContentionGroupTask: member without a path");
    require(m.result != nullptr, "ContentionGroupTask: member without result");
    mean_rtt_s += m.plan->path->min_rtt_s;
  }
  mean_rtt_s /= static_cast<double>(members.size());
  net::SharedLinkConfig link_config;
  link_config.mode = spec.fair_queue ? net::ShareMode::kFairQueue
                                     : net::ShareMode::kFifo;
  link_config.queue_capacity_bytes = std::max(
      spec.queue_bdp * shared_trace_.mean_rate() * mean_rtt_s, 64.0 * 1024.0);
  link_.emplace(shared_trace_, link_config);

  // Members are built in place: each session holds references into its
  // slot (sender) and to the group clock, so states_ never reallocates.
  states_.reserve(members.size());
  double prev_offset = 0.0;
  for (Member& m : members) {
    require(m.arrival_offset_s >= prev_offset,
            "ContentionGroupTask: member offsets must ascend");
    prev_offset = m.arrival_offset_s;
    MemberState& s = states_.emplace_back();
    s.m = std::move(m);
    s.flow = link_->add_flow();
    s.task.emplace(*s.m.plan, *s.m.algo, config, *s.m.result, world_s_);
  }
  offered_.assign(states_.size(), 0.0);
  results_.assign(states_.size(), net::LinkStepResult{});
}

ContentionGroupTask::Step ContentionGroupTask::prepare() {
  for (;;) {
    for (size_t i = 0; i < states_.size(); i++) {
      if (states_[i].phase == Phase::kAtDecision) {
        current_ = i;
        return Step::kDecision;
      }
    }
    if (!advance_world()) {
      return Step::kDone;
    }
  }
}

bool ContentionGroupTask::stage(fugu::TtpInferenceBatch& batch) {
  MemberState& s = states_[current_];
  require(s.phase == Phase::kAtDecision, "ContentionGroupTask: no decision");
  return s.task->stage(batch);
}

void ContentionGroupTask::finish_chunk() {
  MemberState& s = states_[current_];
  require(s.phase == Phase::kAtDecision, "ContentionGroupTask: no decision");
  s.sender->start_transfer(s.task->begin_chunk());
  s.phase = Phase::kChunk;
  if (!s.sender->transfer_in_flight()) {
    // Pre-satisfied by the fluid slack — same immediate-completion path the
    // private sender takes.
    on_transfer_done(s);
  }
}

void ContentionGroupTask::arrive(MemberState& s) {
  if (!s.task->begin_session()) {
    s.phase = Phase::kDone;
    s.end_w = world_s_;
    return;
  }
  s.sender.emplace(s.m.plan->path->min_rtt_s, make_cc(s.m.use_cubic));
  s.task->attach_sender(*s.sender);
  s.sender->start_transfer(sim::kPreambleBytes);
  s.phase = Phase::kPreamble;
}

void ContentionGroupTask::park(MemberState& s,
                               const SessionTask::StreamStep step,
                               const double wait_s) {
  switch (step) {
    case SessionTask::StreamStep::kDecision:
      s.phase = Phase::kAtDecision;
      return;
    case SessionTask::StreamStep::kWait:
      s.wake_at_w = world_s_ + wait_s;
      s.phase = Phase::kIdleWait;
      return;
    case SessionTask::StreamStep::kDone:
      s.phase = Phase::kDone;
      s.end_w = world_s_;
      return;
  }
}

void ContentionGroupTask::on_transfer_done(MemberState& s) {
  const net::TransferResult transfer = s.sender->take_completion();
  if (s.phase == Phase::kChunk) {
    s.task->complete_chunk(transfer);
  }
  // Preamble done, or chunk accounted: park at the next stream step.
  double wait_s = 0.0;
  const SessionTask::StreamStep step = s.task->advance(wait_s);
  park(s, step, wait_s);
}

bool ContentionGroupTask::advance_world() {
  // Phase 1: process everything due *now* (arrivals, wake-ups), in member
  // order; if anything fired, let prepare() re-scan for parked decisions.
  bool activity = false;
  for (MemberState& s : states_) {
    if (s.phase == Phase::kUnarrived &&
        s.m.arrival_offset_s <= world_s_ + kBoundaryEpsS) {
      arrive(s);
      if (s.phase == Phase::kPreamble && !s.sender->transfer_in_flight()) {
        on_transfer_done(s);
      }
      activity = true;
    } else if (s.phase == Phase::kIdleWait &&
               s.wake_at_w <= world_s_ + kBoundaryEpsS) {
      double wait_s = 0.0;
      const SessionTask::StreamStep step = s.task->finish_wait(wait_s);
      park(s, step, wait_s);
      activity = true;
    }
  }
  if (activity) {
    return true;
  }
  bool any_live = false;
  for (const MemberState& s : states_) {
    if (s.phase != Phase::kDone) {
      any_live = true;
    }
  }
  if (!any_live) {
    return false;
  }

  // Phase 2: pick the lockstep dt — the finest transferring connection's
  // preferred step, clipped to the next arrival/wake boundary; with no
  // transfer in flight, idle toward the boundary in <= 100 ms hops (the
  // private path's idle_until cadence).
  double boundary = std::numeric_limits<double>::infinity();
  double dt = std::numeric_limits<double>::infinity();
  bool any_transfer = false;
  for (const MemberState& s : states_) {
    if (s.phase == Phase::kUnarrived) {
      boundary = std::min(boundary, s.m.arrival_offset_s);
    } else if (s.phase == Phase::kIdleWait) {
      boundary = std::min(boundary, s.wake_at_w);
    }
    if (s.phase == Phase::kPreamble || s.phase == Phase::kChunk) {
      any_transfer = true;
      dt = std::min(dt, s.sender->preferred_dt());
    }
  }
  if (!any_transfer) {
    require(boundary < std::numeric_limits<double>::infinity(),
            "ContentionGroupTask: live members but nothing to wait for");
    dt = 0.1;
  }
  if (boundary < std::numeric_limits<double>::infinity()) {
    dt = std::min(dt, boundary - world_s_);
  }
  require(dt > 0.0, "ContentionGroupTask: non-positive world step");

  // Phase 3: lockstep fluid step — every open connection offers bytes, the
  // shared link splits the capacity, every connection absorbs its share.
  // Ascending member order throughout (the conservation/determinism
  // contract); members without a connection yet (or already done) offer 0,
  // and a done member's residual queue keeps draining.
  std::fill(offered_.begin(), offered_.end(), 0.0);
  for (MemberState& s : states_) {
    if (s.sender.has_value() && s.phase != Phase::kDone) {
      offered_[static_cast<size_t>(s.flow)] = s.sender->offered_step(dt);
    }
  }
  link_->step(world_s_, dt, offered_, results_);
  for (MemberState& s : states_) {
    if (s.sender.has_value() && s.phase != Phase::kDone) {
      s.sender->absorb_step(dt, results_[static_cast<size_t>(s.flow)]);
    }
  }
  world_s_ += dt;

  // Phase 4: collect transfer completions, in member order.
  for (MemberState& s : states_) {
    if ((s.phase == Phase::kPreamble || s.phase == Phase::kChunk) &&
        !s.sender->transfer_in_flight()) {
      on_transfer_done(s);
    }
  }
  return true;
}

void ContentionGroupTask::record_load(stats::LoadSeries& load,
                                      const double arrival_s,
                                      const double /*end_s*/) const {
  for (const MemberState& s : states_) {
    load.add(arrival_s + s.m.arrival_offset_s, +1);
    load.add(arrival_s + s.end_w, -1);
  }
}

void ContentionGroupTask::drain_fault_events(std::vector<FaultEvent>& out) {
  for (MemberState& s : states_) {
    s.task->drain_fault_events(out);
  }
}

std::unique_ptr<abr::AbrAlgorithm> ContentionGroupTask::take_algorithm(
    const size_t i) {
  return std::move(states_[i].m.algo);
}

double ContentionGroupTask::fairness_index() const {
  std::vector<double> delivered;
  delivered.reserve(states_.size());
  for (const MemberState& s : states_) {
    if (s.sender.has_value()) {
      delivered.push_back(link_->delivered_total(s.flow));
    }
  }
  if (delivered.size() < 2) {
    return 1.0;
  }
  return net::jain_fairness_index(delivered);
}

double ContentionGroupTask::shared_delivered_bytes() const {
  double total = 0.0;
  for (int flow = 0; flow < link_->num_flows(); flow++) {
    total += link_->delivered_total(flow);
  }
  return total;
}

double ContentionGroupTask::shared_offered_bytes() const {
  double total = 0.0;
  for (int flow = 0; flow < link_->num_flows(); flow++) {
    total += link_->offered_total(flow);
  }
  return total;
}

double ContentionGroupTask::shared_lost_bytes() const {
  double total = 0.0;
  for (int flow = 0; flow < link_->num_flows(); flow++) {
    total += link_->lost_total(flow);
  }
  return total;
}

}  // namespace puffer::exp
