#include "exp/trial.hh"

#include <algorithm>
#include <iterator>

#include "exp/fleet_trial.hh"
#include "exp/session_task.hh"
#include "net/scenario.hh"
#include "sim/fleet.hh"
#include "util/require.hh"

namespace puffer::exp {

std::vector<stats::StreamFigures> SchemeResult::slow_paths(
    const double threshold_mbps) const {
  std::vector<stats::StreamFigures> slow;
  for (const auto& figures : considered) {
    if (figures.mean_delivery_rate_mbps < threshold_mbps &&
        figures.mean_delivery_rate_mbps > 0.0) {
      slow.push_back(figures);
    }
  }
  return slow;
}

const SchemeResult& TrialResult::result_for(const std::string& name) const {
  for (const auto& scheme : schemes) {
    if (scheme.scheme == name) {
      return scheme;
    }
  }
  throw RequirementError("TrialResult: no scheme named '" + name + "'");
}

namespace detail {

int64_t num_session_plans(const TrialConfig& config) {
  // Clamped so a negative sessions_per_scheme yields an empty trial rather
  // than a negative task count.
  return std::max<int64_t>(0, config.sessions_per_scheme) *
         (config.paired_paths ? 1
                              : static_cast<int64_t>(config.schemes.size()));
}

// Tripwire for the field-by-field merge in append_scheme_result: if
// ConsortCounts grows a field, this forces whoever adds it to extend the
// merge (a missed field would silently zero it on partial-result runs only,
// breaking the bit-identity guarantee). SchemeResult's container members
// have platform-dependent sizes, so keep its member list in sync by hand:
// scheme, considered, session_durations_s, consort, logs.
static_assert(sizeof(ConsortCounts) == 7 * sizeof(int64_t),
              "ConsortCounts changed: update append_scheme_result and "
              "expect_identical_trials in tests/test_helpers.hh");

std::vector<SchemeResult> empty_scheme_results(const TrialConfig& config) {
  std::vector<SchemeResult> results;
  results.reserve(config.schemes.size());
  for (const auto& name : config.schemes) {
    results.push_back(SchemeResult{});
    results.back().scheme = name;
  }
  return results;
}

void run_session_range(
    const TrialConfig& config, const net::PathGenerator& paths,
    const Rng& master, const sim::UserModel& users,
    const std::span<const std::unique_ptr<abr::AbrAlgorithm>> algorithms,
    const int64_t begin, const int64_t end,
    std::vector<SchemeResult>& results) {
  const auto num_schemes = config.schemes.size();
  require(algorithms.size() == num_schemes && results.size() == num_schemes,
          "run_session_range: algorithms/results must match config.schemes");

  for (int64_t s = begin; s < end; s++) {
    Rng session_rng = master.split(static_cast<uint64_t>(s));
    SessionPlan plan = make_session_plan(session_rng, users, paths);

    if (config.paired_paths) {
      // Emulation-style: every scheme experiences the identical session.
      for (size_t a = 0; a < num_schemes; a++) {
        run_session(plan, *algorithms[a], config, results[a]);
      }
    } else {
      // RCT: blinded random assignment of the session to one scheme.
      const auto a = static_cast<size_t>(session_rng.uniform_int(
          0, static_cast<int64_t>(num_schemes) - 1));
      run_session(plan, *algorithms[a], config, results[a]);
    }
  }
}

void append_scheme_result(SchemeResult& into, SchemeResult& from) {
  into.considered.insert(into.considered.end(),
                         std::make_move_iterator(from.considered.begin()),
                         std::make_move_iterator(from.considered.end()));
  into.session_durations_s.insert(into.session_durations_s.end(),
                                  from.session_durations_s.begin(),
                                  from.session_durations_s.end());
  into.logs.insert(into.logs.end(), std::make_move_iterator(from.logs.begin()),
                   std::make_move_iterator(from.logs.end()));
  into.consort.sessions += from.consort.sessions;
  into.consort.streams += from.consort.streams;
  into.consort.never_began += from.consort.never_began;
  into.consort.under_min_watch += from.consort.under_min_watch;
  into.consort.decoder_failure += from.consort.decoder_failure;
  into.consort.truncated += from.consort.truncated;
  into.consort.considered += from.consort.considered;
}

TrialResult run_trial_serial(const TrialConfig& config,
                             const SchemeFactory& factory) {
  require(!config.schemes.empty(),
          "run_trial_serial: need at least one scheme");
  std::vector<std::unique_ptr<abr::AbrAlgorithm>> algorithms;
  for (const auto& name : config.schemes) {
    algorithms.push_back(factory(name));
    require(algorithms.back() != nullptr,
            "run_trial_serial: factory returned null for '" + name + "'");
  }
  const std::unique_ptr<net::PathGenerator> paths =
      net::make_path_generator(config.scenario);
  TrialResult trial;
  trial.schemes = empty_scheme_results(config);
  run_session_range(config, *paths, Rng{config.seed},
                    sim::UserModel{config.seed}, algorithms, 0,
                    num_session_plans(config), trial.schemes);
  return trial;
}

}  // namespace detail

namespace {

/// run_trial's fleet: arrivals so sparse (mean gap 10^7 virtual s, longer
/// than any session) that a shard holds about one session at a time, which
/// keeps resident path traces at one per shard. Shards are dealt round-robin
/// and session costs are heavy-tailed, so each worker gets several shards
/// to balance its load.
FleetTrialConfig as_fleet_trial(const TrialConfig& config) {
  constexpr double kSparseArrivalsPerS = 1e-7;
  constexpr int kShardsPerThread = 4;
  FleetTrialConfig fleet;
  fleet.trial = config;
  fleet.arrivals.rate_per_s = kSparseArrivalsPerS;
  fleet.num_shards =
      kShardsPerThread *
      sim::FleetEngine{{.num_threads = config.num_threads}}
          .resolved_num_threads();
  return fleet;
}

}  // namespace

TrialResult run_trial(const TrialConfig& config,
                      const SchemeArtifacts& artifacts) {
  return run_fleet_trial(as_fleet_trial(config), artifacts).trial;
}

TrialResult run_trial(const TrialConfig& config, const SchemeFactory& factory) {
  return run_fleet_trial(as_fleet_trial(config), factory).trial;
}

}  // namespace puffer::exp
