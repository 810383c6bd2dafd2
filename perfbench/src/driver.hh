#ifndef PERFBENCH_DRIVER_HH
#define PERFBENCH_DRIVER_HH

#include <memory>
#include <string>

#include "abr/mpc.hh"
#include "decorators.hh"
#include "exp/trial.hh"
#include "ledger.hh"

namespace perfbench {

/// Span log plus work counts of one traced run.
struct Tracer {
  Tracer() = default;
  explicit Tracer(bool keep_spans) : ledger(keep_spans) {}

  Ledger ledger;
  LayerCounts counts;
};

/// Assemble a scheme the way exp::make_scheme does for a fault-free trial
/// (BBA, MPC-HM, RobustMPC-HM, Fugu). With a tracer, the scheme's decision
/// and its predictor are wrapped in timing decorators. `mpc` is the
/// planner's configuration: the registry's default unless a test sets a
/// different one on purpose.
std::unique_ptr<puffer::abr::AbrAlgorithm> make_scheme(
    const std::string& name, const puffer::exp::SchemeArtifacts& artifacts,
    const puffer::abr::MpcConfig& mpc, Tracer* tracer);

/// Run a trial serially through the simulator's public entry points: plans
/// from exp::make_session_plan with the RCT assignment of
/// exp::detail::run_session_range, and each session assembled from
/// net::TcpSender + net::BbrModel, sim::send_preamble,
/// media::VbrVideoSource and sim::StreamSession exactly as
/// exp::SessionTask assembles it. Its TrialResult therefore equals
/// exp::run_trial's and exp::run_fleet_trial's bit for bit; with a tracer,
/// the path generator, the congestion controller and the scheme are
/// decorated and every layer boundary is a span.
puffer::exp::TrialResult run_driver_trial(
    const puffer::exp::TrialConfig& config,
    const puffer::exp::SchemeArtifacts& artifacts,
    const puffer::abr::MpcConfig& mpc, Tracer* tracer);

/// The same trial with the plans split into `threads` contiguous ranges,
/// each driven on a thread of its own by schemes of its own, and merged in
/// plan order the way exp::detail::append_scheme_result merges ranges: the
/// figures equal the serial driver's bit for bit. The decorators are in
/// place but keep no spans; `decisions` receives the choose_rung count.
puffer::exp::TrialResult run_driver_trial_parallel(
    const puffer::exp::TrialConfig& config,
    const puffer::exp::SchemeArtifacts& artifacts,
    const puffer::abr::MpcConfig& mpc, int threads, int64_t& decisions);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_HH
