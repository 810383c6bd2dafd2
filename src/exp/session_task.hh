#ifndef PUFFER_EXP_SESSION_TASK_HH
#define PUFFER_EXP_SESSION_TASK_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "exp/trial.hh"
#include "fugu/batch_ttp.hh"
#include "fugu/resilient.hh"
#include "net/tcp_sender.hh"
#include "sim/fleet.hh"
#include "sim/session.hh"

namespace puffer::exp {

/// Everything that defines a session independent of the assigned scheme —
/// sampled up front so that paired (emulation-style) runs can replay the
/// exact same conditions for every scheme, and so the fleet engine can
/// create a session's task at its arrival time.
struct SessionPlan {
  sim::SessionBehavior session;
  std::vector<sim::UserBehavior> stream_behaviors;
  std::vector<int> channels;
  std::vector<uint64_t> video_seeds;
  std::optional<net::NetworkPath> path;
  uint64_t run_seed = 0;
};

SessionPlan make_session_plan(Rng& rng, const sim::UserModel& users,
                              const net::PathGenerator& paths);

namespace detail {

/// CONSORT bucketing + telemetry folding for one finished stream, as
/// SessionTask does it after every stream. Draws the 1.1% loss-of-contact
/// bernoulli from `run_rng` at exactly the position the serial loop draws
/// it.
void fold_stream_outcome(const sim::StreamOutcome& outcome, Rng& run_rng,
                         const TrialConfig& config, SchemeResult& result,
                         double& session_duration_s, bool& any_considered);

}  // namespace detail

/// One trial session as a resumable task: the session loop the serial trial
/// path used to run in one call (streams, CONSORT accounting, telemetry
/// logs, fault injection), cut at its ABR decision points so the fleet
/// engine can interleave thousands of sessions on one virtual timeline. The
/// sequential path drives a task straight to completion (run_session
/// below), so both paths share one implementation and stay bit-identical by
/// construction.
///
/// Two modes share that one life cycle:
///  * private-path mode (the four-argument constructor): the task owns a
///    TcpSender over the plan's path and the engine drives it through the
///    FleetTask protocol, whose prepare()/finish_chunk() run the steps
///    below against that sender (idle_until on kWait, transfer per chunk);
///  * borrowed-sender mode (contention-group members): the caller owns an
///    externally driven TcpSender behind a shared link and drives the
///    transfers itself through the stream-level steps below —
///      begin_session() -> [open the connection] attach_sender() ->
///      [transfer the preamble] -> advance()
///      advance()/finish_wait() -> kDecision: [stage()] begin_chunk() ->
///                                 [transfer the bytes] complete_chunk() ->
///                                 advance()
///                              -> kWait: [idle wait_s] finish_wait()
///                              -> kDone: session over.
///    Fault events are stamped on the caller's clock.
///
/// Non-owning throughout: the plan, algorithm, config and result
/// accumulator (and, in borrowed mode, the sender and clock) must all
/// outlive the task (the serial driver completes within the caller's
/// scope; the fleet wrappers own the plan alongside the task).
class SessionTask final : public sim::FleetTask {
 public:
  using StreamStep = sim::StreamSession::PrepareStep;

  SessionTask(const SessionPlan& plan, abr::AbrAlgorithm& algo,
              const TrialConfig& config, SchemeResult& result);
  /// Borrowed-sender mode; `clock_s` is the caller's virtual clock, which
  /// elapsed_s() reports and fault events are stamped with.
  SessionTask(const SessionPlan& plan, abr::AbrAlgorithm& algo,
              const TrialConfig& config, SchemeResult& result,
              const double& clock_s);

  Step prepare() override;
  bool stage(fugu::TtpInferenceBatch& batch) override;
  void finish_chunk() override;
  [[nodiscard]] double elapsed_s() const override;
  void drain_fault_events(std::vector<FaultEvent>& out) override;

  // --- Borrowed-sender steps ----------------------------------------------

  /// Session-start accounting, algorithm reset and fault streams. Returns
  /// false when the session ended before it needed a connection (bounce).
  bool begin_session();
  /// The connection the caller opened for this session.
  void attach_sender(net::TcpSender& sender);
  /// Advance through the session's streams to the next decision, wait or
  /// the session's end (once the preamble or the last chunk was delivered).
  StreamStep advance(double& wait_s);
  /// Resume after a kWait's idle time; same results as advance().
  StreamStep finish_wait(double& wait_s);
  /// Decide the pending chunk; returns the bytes for the caller to send.
  double begin_chunk();
  /// Account the delivered chunk, then draw this decision's faults.
  void complete_chunk(const net::TransferResult& transfer);

  // ------------------------------------------------------------------------

  /// Whether the session got past its start (false for a bounce, or before
  /// the first prepare()/begin_session()).
  [[nodiscard]] bool began() const { return began_; }
  /// Streams the fault plane cut short via the user model this session.
  [[nodiscard]] int64_t aborted_streams() const { return aborted_streams_; }
  /// The resilient TTP wrapper, when this session's scheme carries one
  /// (for faults.* metric harvesting); nullptr otherwise.
  [[nodiscard]] fugu::ResilientPredictor* resilient() const {
    return resilient_;
  }

 private:
  /// Open the current stream if needed; false (and the session recorded as
  /// over) once every stream has run.
  bool open_stream();
  void finish_stream();
  /// Per-decision fault bookkeeping after a chunk was delivered.
  void after_chunk();

  const SessionPlan& plan_;
  abr::AbrAlgorithm& algo_;
  const TrialConfig& config_;
  SchemeResult& result_;
  const double* clock_s_ = nullptr;  ///< borrowed mode only

  // Set when the algorithm is an MpcAbr driven by a BatchTtpPredictor —
  // the combination whose decisions the fleet engine can coalesce. A
  // ResilientPredictor wrapper hides the batch predictor, so faulted Fugu
  // decisions run inline (bit-identical to staged by construction).
  fugu::BatchTtpPredictor* batch_predictor_ = nullptr;
  fugu::ResilientPredictor* resilient_ = nullptr;
  int mpc_horizon_ = 0;

  // Session-abort fault stream: seeded from (fault seed, family, run seed)
  // at session start and drawn once per decision — a pure per-session
  // schedule, invariant to fleet interleaving.
  std::optional<Rng> abort_rng_;
  double abort_probability_ = 0.0;
  int64_t aborted_streams_ = 0;
  int64_t seen_ttp_failures_ = 0;
  std::vector<FaultEvent> pending_fault_events_;

  Rng run_rng_{0};
  std::optional<net::TcpSender> own_sender_;  ///< private-path mode
  net::TcpSender* sender_ = nullptr;
  std::optional<media::VbrVideoSource> video_;
  std::optional<sim::StreamSession> stream_;
  int stream_index_ = 0;
  double session_duration_s_ = 0.0;
  bool any_considered_ = false;
  bool began_ = false;
  bool finished_ = false;
};

/// Drive one session to completion — the serial trial path.
void run_session(const SessionPlan& plan, abr::AbrAlgorithm& algo,
                 const TrialConfig& config, SchemeResult& result);

}  // namespace puffer::exp

#endif  // PUFFER_EXP_SESSION_TASK_HH
