#ifndef PUFFER_EXP_TRIAL_HH
#define PUFFER_EXP_TRIAL_HH

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "exp/registry.hh"
#include "fugu/dataset.hh"
#include "net/scenario.hh"
#include "sim/faults.hh"
#include "sim/session.hh"
#include "stats/summary.hh"
#include "util/rng.hh"

namespace puffer::exp {

struct TrialConfig {
  std::vector<std::string> schemes = {"Fugu", "MPC-HM", "RobustMPC-HM",
                                      "Pensieve", "BBA"};
  int sessions_per_scheme = 400;
  /// Which world sessions stream over, resolved through the scenario
  /// registry (net::scenario_registry()). The default is the deployment-like
  /// heavy-tailed world; "fcc-emulation" gives Figure 11's mahimahi-style
  /// contrast, "trace-replay" + trace_path replays a recorded trace.
  net::ScenarioSpec scenario;
  uint64_t seed = 1;
  /// Paired mode: every scheme sees the same sequence of sessions (paths,
  /// users, videos). This is what emulators allow and real RCTs cannot do
  /// (section 5.3) — used for the Figure 11 emulation panel.
  bool paired_paths = false;
  /// Collect per-chunk transfer logs for TTP training.
  bool collect_logs = false;
  int day = 0;  ///< day tag for collected logs
  sim::StreamRunConfig stream;
  double min_watch_time_s = 4.0;  ///< exclusion threshold (Figure A1)
  /// Worker threads driving the trial's fleet shards (see run_trial). 0
  /// means "use all hardware threads". Any value yields bit-identical
  /// TrialResult contents: sessions are independent given their plan (each
  /// derives from master.split(session_index) and every scheme fully resets
  /// per session), and partial results are merged in session-index order.
  int num_threads = 0;
  /// Fault-injection plan (disabled by default — the zero-fault contract:
  /// a disabled plan leaves every result byte identical to pre-fault
  /// builds). Draws are keyed on per-session run seeds, so they are
  /// invariant to thread and shard count.
  sim::FaultPlan faults;
};

/// Figure A1-style accounting.
struct ConsortCounts {
  int64_t sessions = 0;
  int64_t streams = 0;
  int64_t never_began = 0;
  int64_t under_min_watch = 0;
  int64_t decoder_failure = 0;
  int64_t truncated = 0;  ///< loss of contact (still considered)
  int64_t considered = 0;
};

struct SchemeResult {
  std::string scheme;
  std::vector<stats::StreamFigures> considered;
  std::vector<double> session_durations_s;  ///< total time on player, per session
  ConsortCounts consort;
  fugu::TtpDataset logs;  ///< non-empty when collect_logs

  /// Subset of considered streams on slow paths (mean delivery rate below
  /// `threshold_mbps`, Figure 8 right panel).
  [[nodiscard]] std::vector<stats::StreamFigures> slow_paths(
      double threshold_mbps = 6.0) const;
};

struct TrialResult {
  std::vector<SchemeResult> schemes;

  [[nodiscard]] const SchemeResult& result_for(const std::string& name) const;
};

/// Run a randomized controlled trial: sessions are blindly assigned to
/// schemes, streamed over sampled paths with sampled viewer behaviour, and
/// accounted per Figure A1. Executed by run_fleet_trial with arrivals spread
/// so far apart that each shard holds about one session at a time; the
/// result is bit-identical to detail::run_trial_serial.
TrialResult run_trial(const TrialConfig& config,
                      const SchemeArtifacts& artifacts);

/// Same, with a custom scheme factory (for experiment arms outside the
/// standard registry, e.g. stale-TTP Fugu variants in the staleness study).
/// With num_threads != 1 the factory is called concurrently from the fleet's
/// shard workers, so it must be safe to call from several threads at once.
using SchemeFactory =
    std::function<std::unique_ptr<abr::AbrAlgorithm>(const std::string&)>;
TrialResult run_trial(const TrialConfig& config, const SchemeFactory& factory);

namespace detail {

/// Internal plumbing shared between the fleet trial runner and the serial
/// reference below.

/// Number of session plans the trial draws (paired mode replays each plan
/// for every scheme; RCT mode assigns each plan to exactly one scheme).
[[nodiscard]] int64_t num_session_plans(const TrialConfig& config);

/// Fresh per-scheme accumulators in config.schemes order.
[[nodiscard]] std::vector<SchemeResult> empty_scheme_results(
    const TrialConfig& config);

/// The session-sequential reference executor: one algorithm per scheme,
/// every plan run to completion in session-index order on the calling
/// thread. It is what tests and bench audits compare the fleet against;
/// config.num_threads is ignored.
[[nodiscard]] TrialResult run_trial_serial(const TrialConfig& config,
                                           const SchemeFactory& factory);

/// Run session plans [begin, end), appending into `results` (one entry per
/// scheme, config.schemes order). Pure function of (config, paths, master,
/// users, begin, end) provided every algorithm honours reset_session().
/// `paths` is the generator resolved from config.scenario (PathGenerator
/// implementations are stateless).
void run_session_range(
    const TrialConfig& config, const net::PathGenerator& paths,
    const Rng& master, const sim::UserModel& users,
    std::span<const std::unique_ptr<abr::AbrAlgorithm>> algorithms,
    int64_t begin, int64_t end, std::vector<SchemeResult>& results);

/// Merge one partial per-scheme accumulator into `into`, preserving the
/// order of `from`'s entries. The fleet merges its per-session partials in
/// ascending session order, so the combined result is bit-identical to the
/// serial loop.
void append_scheme_result(SchemeResult& into, SchemeResult& from);

}  // namespace detail

}  // namespace puffer::exp

#endif  // PUFFER_EXP_TRIAL_HH
