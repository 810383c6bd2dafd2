#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "abr/mpc.hh"

namespace perfbench {

/// Workload sizes. The defaults are what the benchmark measures; tiny() is
/// the self-test's: same code paths, seconds instead of minutes.
struct Sizes {
  /// Sessions of rct-mix, all schemes. The seed decides each session's
  /// network and so its cost per chunk; 1500 sessions keep that from
  /// dominating chunks_per_s.
  int mix_sessions = 1500;
  int bba_sessions = 600;        ///< bba-cellular
  /// Per-stream simulation budget: 60 chunks (two minutes of video), the
  /// cap of the repository's fleet_scale mix. A session's path, preamble
  /// and assembly cost the same whatever the cap, so a shorter one would
  /// weight them over the per-chunk work.
  int max_stream_chunks = 60;
  int campaign_days = 2;
  /// Per campaign day. chunks_per_s on campaign counts telemetry chunks
  /// against the whole day's wall; 256 sessions keep the seed's draw of
  /// telemetry and evaluation sessions from dominating that ratio.
  int telemetry_sessions = 256;
  int eval_sessions = 48;        ///< per campaign arm-day
  int holdout_sessions = 16;     ///< per campaign day
  int campaign_train_epochs = 3; ///< nightly retrain of the Fugu arm
  int ttp_days = 1;              ///< set-up TTP for rct-mix
  int ttp_sessions = 30;
  int ttp_epochs = 3;
  int setup_reps = 3;            ///< set-ups per run; setup_s is their median
  /// The trial workloads' warm-up pass runs 1/warmup_divisor of the
  /// sessions of the timed job.
  int warmup_divisor = 8;
  int min_timed_reps = 1;

  static Sizes tiny();
};

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads of the untimed and timed passes; < 0 keeps the
  /// workload's own count. Results and counts do not depend on it.
  int threads = -1;
  Sizes sizes;
  /// Directory for campaign checkpoints (emptied after each pass).
  std::string work_dir = ".bench_build/perfbench-work";
  /// Where the traced run writes its spans (CSV); empty: not written.
  std::string spans_out;
  /// Planner configuration of the traced driver. Only the self-test sets a
  /// non-default one, to prove a mismatched driver is caught.
  puffer::abr::MpcConfig driver_mpc;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  bool correct = true;
  int64_t attempted = 0;  ///< sessions (campaign: days) run by checked passes
  int64_t failed = 0;     ///< of those, in a pass that threw or diverged
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  ///< digests, environment, errors
};

/// Metric names and units, in output order.
struct MetricSpec {
  const char* name;
  const char* unit;
  bool count;  ///< deterministic for a seed: must repeat exactly
};
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Run one workload: set-up (repeated), warm-up, timed passes, the traced
/// driver's correctness check and, with options.trace, the traced ledger.
/// Never throws: failures are reported through `correct` and `failed`.
RunReport run_workload(const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_HH
