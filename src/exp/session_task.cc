#include "exp/session_task.hh"

#include <algorithm>
#include <memory>
#include <utility>

#include "abr/mpc_abr.hh"
#include "media/channel.hh"
#include "net/bbr.hh"
#include "util/require.hh"

namespace puffer::exp {

SessionPlan make_session_plan(Rng& rng, const sim::UserModel& users,
                              const net::PathGenerator& paths) {
  SessionPlan plan;
  plan.session = users.sample_session(rng);
  double total_intent_s = 0.0;
  for (int k = 0; k < plan.session.num_streams; k++) {
    plan.stream_behaviors.push_back(users.sample_stream_behavior(rng));
    total_intent_s += plan.stream_behaviors.back().watch_intent_s;
    plan.channels.push_back(static_cast<int>(
        rng.uniform_int(0, media::kNumChannels - 1)));
    plan.video_seeds.push_back(rng.engine()());
  }
  const double trace_duration_s =
      std::min(1.25 * total_intent_s + 900.0, 18.0 * 3600.0);

  Rng path_rng = rng.split("path");
  plan.path = paths.sample_path(path_rng, trace_duration_s);
  plan.run_seed = rng.engine()();
  return plan;
}

SessionTask::SessionTask(const SessionPlan& plan, abr::AbrAlgorithm& algo,
                         const TrialConfig& config, SchemeResult& result)
    : plan_(plan), algo_(algo), config_(config), result_(result) {
  if (auto* mpc = dynamic_cast<abr::MpcAbr*>(&algo_)) {
    if (auto* batched =
            dynamic_cast<fugu::BatchTtpPredictor*>(&mpc->predictor())) {
      batch_predictor_ = batched;
      mpc_horizon_ = mpc->controller().config().horizon;
    }
    resilient_ = dynamic_cast<fugu::ResilientPredictor*>(&mpc->predictor());
  }
}

SessionTask::SessionTask(const SessionPlan& plan, abr::AbrAlgorithm& algo,
                         const TrialConfig& config, SchemeResult& result,
                         const double& clock_s)
    : SessionTask(plan, algo, config, result) {
  clock_s_ = &clock_s;
}

bool SessionTask::begin_session() {
  require(!began_ && !finished_, "SessionTask: session already started");
  result_.consort.sessions++;
  if (plan_.session.incompatible_or_bounce) {
    // Page loaded but video never played (incompatible browser / bounce).
    result_.consort.streams++;
    result_.consort.never_began++;
    finished_ = true;
    return false;
  }
  began_ = true;
  run_rng_ = Rng{plan_.run_seed};
  algo_.reset_session();
  if (resilient_ != nullptr) {
    resilient_->begin_session(plan_.run_seed);
    seen_ttp_failures_ = 0;
  }
  abort_probability_ = config_.faults.probability(sim::kFaultSessionAbort);
  if (abort_probability_ > 0.0) {
    abort_rng_ =
        config_.faults.rng(sim::kFaultSessionAbort).split(plan_.run_seed);
  }
  return true;
}

void SessionTask::attach_sender(net::TcpSender& sender) {
  require(began_ && sender_ == nullptr,
          "SessionTask: attach_sender needs a begun, unconnected session");
  sender_ = &sender;
}

SessionTask::Step SessionTask::prepare() {
  if (finished_) {
    return Step::kDone;
  }
  if (!began_) {
    require(clock_s_ == nullptr,
            "SessionTask: a borrowed-sender task is driven by its owner");
    if (!begin_session()) {
      return Step::kDone;
    }
    sender_ = &own_sender_.emplace(
        *plan_.path, std::make_unique<net::BbrModel>(),
        net::TcpSender::default_queue_capacity(*plan_.path));
    sim::send_preamble(*sender_);
  }
  double wait_s = 0.0;
  StreamStep step = advance(wait_s);
  while (step == StreamStep::kWait) {
    sender_->idle_until(sender_->now() + wait_s);
    step = finish_wait(wait_s);
  }
  return step == StreamStep::kDecision ? Step::kDecision : Step::kDone;
}

SessionTask::StreamStep SessionTask::advance(double& wait_s) {
  for (;;) {
    if (!open_stream()) {
      return StreamStep::kDone;
    }
    const StreamStep step = stream_->prepare_chunk_async(wait_s);
    if (step != StreamStep::kDone) {
      return step;
    }
    finish_stream();
  }
}

SessionTask::StreamStep SessionTask::finish_wait(double& wait_s) {
  require(stream_.has_value(), "SessionTask: no wait pending");
  if (stream_->finish_wait() == StreamStep::kDecision) {
    return StreamStep::kDecision;
  }
  finish_stream();
  return advance(wait_s);
}

bool SessionTask::stage(fugu::TtpInferenceBatch& batch) {
  if (batch_predictor_ == nullptr) {
    return false;
  }
  require(stream_.has_value(), "SessionTask: no decision pending");
  batch_predictor_->stage(stream_->observation(), stream_->lookahead(),
                          mpc_horizon_, batch);
  return true;
}

void SessionTask::finish_chunk() {
  complete_chunk(sender_->transfer(begin_chunk()));
}

double SessionTask::begin_chunk() {
  require(stream_.has_value(), "SessionTask: no decision pending");
  return stream_->begin_chunk();
}

void SessionTask::complete_chunk(const net::TransferResult& transfer) {
  stream_->complete_chunk(transfer);
  after_chunk();
}

void SessionTask::after_chunk() {
  if (resilient_ != nullptr) {
    const int64_t failures = resilient_->session_stats().failures;
    for (; seen_ttp_failures_ < failures; seen_ttp_failures_++) {
      pending_fault_events_.push_back(
          FaultEvent{elapsed_s(), sim::kFaultTtpInference});
    }
  }
  if (abort_rng_.has_value() && !stream_->done() &&
      abort_rng_->bernoulli(abort_probability_)) {
    stream_->abort_stream();
    aborted_streams_ += 1;
    pending_fault_events_.push_back(
        FaultEvent{elapsed_s(), sim::kFaultSessionAbort});
  }
}

double SessionTask::elapsed_s() const {
  if (clock_s_ != nullptr) {
    return *clock_s_;
  }
  return sender_ != nullptr ? sender_->now() : 0.0;
}

void SessionTask::drain_fault_events(std::vector<FaultEvent>& out) {
  out.insert(out.end(), pending_fault_events_.begin(),
             pending_fault_events_.end());
  pending_fault_events_.clear();
}

bool SessionTask::open_stream() {
  if (stream_index_ >= plan_.session.num_streams) {
    if (any_considered_) {
      result_.session_durations_s.push_back(session_duration_s_);
    }
    finished_ = true;
    return false;
  }
  if (!stream_) {
    video_.emplace(
        media::default_channels()[static_cast<size_t>(
            plan_.channels[static_cast<size_t>(stream_index_)])],
        plan_.video_seeds[static_cast<size_t>(stream_index_)]);
    stream_.emplace(*sender_, algo_, *video_, /*first_chunk=*/0,
                    plan_.stream_behaviors[static_cast<size_t>(stream_index_)],
                    run_rng_, config_.stream, nullptr);
  }
  return true;
}

void SessionTask::finish_stream() {
  const sim::StreamOutcome outcome = stream_->take_outcome();
  detail::fold_stream_outcome(outcome, run_rng_, config_, result_,
                              session_duration_s_, any_considered_);
  stream_.reset();
  video_.reset();
  stream_index_++;
}

namespace detail {

void fold_stream_outcome(const sim::StreamOutcome& outcome, Rng& run_rng,
                         const TrialConfig& config, SchemeResult& result,
                         double& session_duration_s, bool& any_considered) {
  result.consort.streams++;
  session_duration_s += outcome.wall_time_s;

  if (outcome.decoder_failure) {
    result.consort.decoder_failure++;
  } else if (!outcome.began_playing) {
    result.consort.never_began++;
  } else if (outcome.figures.watch_time_s < config.min_watch_time_s) {
    result.consort.under_min_watch++;
  } else {
    result.consort.considered++;
    if (run_rng.bernoulli(0.011)) {
      result.consort.truncated++;  // loss of contact; still considered
    }
    result.considered.push_back(outcome.figures);
    any_considered = true;
  }

  if (config.collect_logs && outcome.transfer_log.size() >= 2) {
    fugu::StreamLog log;
    log.day = config.day;
    log.chunks.reserve(outcome.transfer_log.size());
    for (const auto& entry : outcome.transfer_log) {
      log.chunks.push_back({entry.size_mb, entry.tx_time_s, entry.tcp_at_send});
    }
    result.logs.push_back(std::move(log));
  }
}

}  // namespace detail

void run_session(const SessionPlan& plan, abr::AbrAlgorithm& algo,
                 const TrialConfig& config, SchemeResult& result) {
  SessionTask task{plan, algo, config, result};
  while (task.prepare() == sim::FleetTask::Step::kDecision) {
    task.finish_chunk();
  }
}

}  // namespace puffer::exp
