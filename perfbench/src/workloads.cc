#include "workloads.hh"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "digest.hh"
#include "driver.hh"
#include "exp/campaign.hh"
#include "exp/fleet_trial.hh"
#include "exp/insitu.hh"
#include "fugu/dataset.hh"
#include "fugu/ttp_trainer.hh"
#include "util/rng.hh"

namespace perfbench {

Sizes Sizes::tiny() {
  Sizes s;
  s.mix_sessions = 12;
  s.bba_sessions = 12;
  s.max_stream_chunks = 20;
  s.campaign_days = 1;
  s.telemetry_sessions = 9;
  s.eval_sessions = 4;
  s.holdout_sessions = 3;
  s.campaign_train_epochs = 1;
  s.ttp_sessions = 6;
  s.ttp_epochs = 1;
  s.setup_reps = 2;
  s.min_timed_reps = 2;
  return s;
}

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"chunks_per_s", "chunks/s", false},
      {"day_s", "s", false},
      {"setup_s", "s", false},
      {"peak_rss_mb", "MiB", false},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs = {
      {"abr.plan.self_ms", "ms", false},
      {"abr.plan.calls", "count", true},
      {"abr.plan.us_p50", "us", false},
      {"abr.plan.us_p99", "us", false},
      {"abr.outcomes_per_query", "count", true},
      {"abr.predict.self_ms", "ms", false},
      {"abr.predict.rows", "count", true},
      {"fugu.rows_per_gemm", "count", true},
      {"fugu.inline_frac", "ratio", true},
      {"net.cc.self_ms", "ms", false},
      {"net.cc.samples_per_chunk", "count", true},
      {"net.transfer.self_ms", "ms", false},
      {"net.path_gen.self_ms", "ms", false},
      {"net.path_gen.calls", "count", true},
      {"sim.prepare.self_ms", "ms", false},
      {"sim.plan.self_ms", "ms", false},
      {"media.source.self_ms", "ms", false},
      {"sim.shard_imbalance", "ratio", true},
      {"sim.peak_concurrency", "count", true},
      {"exp.telemetry.self_ms", "ms", false},
      {"exp.eval_trial.self_ms", "ms", false},
      {"fugu.train.self_ms", "ms", false},
      {"fugu.train.examples", "count", true},
      {"fugu.eval.self_ms", "ms", false},
      {"exp.checkpoint.self_ms", "ms", false},
      {"exp.checkpoint.bytes", "bytes", true},
      {"exp.day.share_of_day_s", "ratio", false},
      {"trace.overhead", "ratio", false},
      {"trace.attributed_frac", "ratio", false},
  };
  return specs;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"rct-mix", "bba-cellular",
                                                 "campaign"};
  return names;
}

namespace {

namespace exp = puffer::exp;
namespace fugu = puffer::fugu;
namespace net = puffer::net;
using puffer::Rng;

/// The set-up TTP is trained, and the trial workloads' warm-up pass drawn,
/// from this seed whatever the workload seed: set-up is the same work in
/// every run.
constexpr uint64_t kSetupSeed = 42;
/// ROADMAP's bar for the ledger: the named layers must cover this share of
/// the traced wall on the session workloads.
constexpr double kMinAttributedFrac = 0.9;
/// Threads of the untraced runs' driver check, which is not timed.
constexpr int kCheckThreads = 4;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> values) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// "name v1 v2 ..." with four significant digits: the per-pass figures
/// behind a median, printed as a note.
std::string series_note(const std::string& name,
                        const std::vector<double>& values) {
  std::string out = name;
  char buf[32];
  for (const double v : values) {
    std::snprintf(buf, sizeof buf, " %.4g", v);
    out += buf;
  }
  return out;
}

/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<int64_t> values, const double q) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return static_cast<double>(values[std::max<size_t>(rank, 1) - 1]);
}

double ratio(const double num, const double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Peak resident set size of this process image. Linux keeps getrusage's
/// ru_maxrss across exec, so a process started from Python would report the
/// launcher's size whenever it is the larger: read VmHWM, which starts
/// afresh at exec, and fall back to getrusage where there is none.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Mirrors exp::Campaign's private per-purpose seeding, so the traced day
/// can rebuild day 0 from public calls.
uint64_t purpose_seed(const uint64_t seed, const std::string& purpose) {
  return puffer::mix64(seed ^ puffer::stable_hash(purpose));
}

uint64_t digest_model(const fugu::TtpModel& model) {
  std::ostringstream out;
  exp::save_ttp(model, out);
  Digest d;
  d.str(out.str());
  return d.value();
}

/// Collects metric values by name, then emits them in spec order.
class MetricSet {
 public:
  void set(const std::string& name, const double value) {
    values_[name] = value;
  }
  void emit(const std::vector<MetricSpec>& specs, RunReport& report) const {
    for (const MetricSpec& spec : specs) {
      const auto it = values_.find(spec.name);
      if (it == values_.end() || !std::isfinite(it->second)) {
        throw std::logic_error(std::string("metric not measured: ") +
                               spec.name);
      }
      report.metrics.push_back({spec.name, it->second, spec.unit});
    }
  }
  void zero_unset(const std::vector<MetricSpec>& specs) {
    for (const MetricSpec& spec : specs) {
      values_.try_emplace(spec.name, 0.0);
    }
  }

 private:
  std::map<std::string, double> values_;
};

/// Run-wide bookkeeping of checked operations.
class Checker {
 public:
  explicit Checker(RunReport& report) : report_(report) {}

  /// Account one pass of `ops` operations; a false `ok` fails all of them.
  void pass(const int64_t ops, const bool ok, const std::string& what) {
    report_.attempted += ops;
    if (!ok) {
      report_.failed += ops;
      report_.correct = false;
      report_.notes.push_back("DIVERGED: " + what);
    }
  }
  void fail(const std::string& what) {
    report_.correct = false;
    report_.notes.push_back("FAILED: " + what);
  }
  void note(const std::string& text) { report_.notes.push_back(text); }

 private:
  RunReport& report_;
};

// ---------------------------------------------------------------- trials

exp::FleetTrialConfig trial_config(const RunOptions& options) {
  exp::FleetTrialConfig config;
  const Sizes& sizes = options.sizes;
  int threads = 0;
  int sessions = 0;
  if (options.workload == "rct-mix") {
    config.trial.schemes = {"Fugu", "MPC-HM", "BBA"};
    config.trial.scenario = net::ScenarioSpec{"puffer"};
    threads = 1;
    config.num_shards = 4;
    sessions = sizes.mix_sessions;
  } else {
    config.trial.schemes = {"BBA"};
    config.trial.scenario = net::ScenarioSpec{"cellular"};
    threads = 1;
    config.num_shards = 1;
    sessions = sizes.bba_sessions;
  }
  config.trial.sessions_per_scheme =
      sessions / static_cast<int>(config.trial.schemes.size());
  config.trial.seed = options.seed;
  config.trial.num_threads = options.threads > 0 ? options.threads : threads;
  config.trial.stream.max_stream_chunks = sizes.max_stream_chunks;
  config.arrivals.kind = "poisson";
  config.arrivals.rate_per_s = 0.05;
  return config;
}

std::shared_ptr<const fugu::TtpModel> train_setup_ttp(const Sizes& sizes) {
  fugu::TtpTrainConfig train;
  train.epochs = sizes.ttp_epochs;
  train.max_examples_per_step = 20000;
  return std::make_shared<const fugu::TtpModel>(exp::train_ttp_on_scenario(
      net::ScenarioSpec{"puffer"}, fugu::TtpConfig{}, train, sizes.ttp_days,
      sizes.ttp_sessions, kSetupSeed));
}

/// Watch time of every considered stream of the trial.
double viewing_s(const exp::TrialResult& trial) {
  double total = 0.0;
  for (const auto& scheme : trial.schemes) {
    for (const auto& figures : scheme.considered) {
      total += figures.watch_time_s;
    }
  }
  return total;
}

/// Max over mean of the per-shard decision counts.
double shard_imbalance(const puffer::sim::FleetRunStats& fleet) {
  double max = 0.0;
  double sum = 0.0;
  for (const auto& shard : fleet.shard_metrics) {
    const auto* metric = shard.find("fleet.decisions");
    const double v = metric != nullptr ? static_cast<double>(metric->value) : 0;
    max = std::max(max, v);
    sum += v;
  }
  const auto n = static_cast<double>(fleet.shard_metrics.size());
  return ratio(max, sum / std::max(n, 1.0));
}

/// Sets the ledger-derived metrics; returns the attributed share of the
/// traced wall.
double ledger_metrics(const Tracer& tracer, const double traced_wall_s,
                      MetricSet& metrics) {
  const Ledger& ledger = tracer.ledger;
  const auto self = ledger.self_ns();
  double attributed_ns = 0.0;
  for (size_t i = 0; i < kNumLayers; i++) {
    attributed_ns += static_cast<double>(self[i]);
    metrics.set(std::string(layer_name(static_cast<Layer>(i))) + ".self_ms",
                static_cast<double>(self[i]) / 1e6);
  }
  const int64_t plans = ledger.span_count(Layer::kAbrPlan);
  const std::vector<int64_t> plan_ns = ledger.span_self_ns(Layer::kAbrPlan);
  metrics.set("abr.plan.calls", static_cast<double>(plans));
  metrics.set("abr.plan.us_p50", percentile(plan_ns, 0.50) / 1e3);
  metrics.set("abr.plan.us_p99", percentile(plan_ns, 0.99) / 1e3);
  const LayerCounts& counts = tracer.counts;
  metrics.set("abr.outcomes_per_query",
              ratio(static_cast<double>(counts.predict_outcomes),
                    static_cast<double>(counts.predict_rows)));
  metrics.set("abr.predict.rows", static_cast<double>(counts.predict_rows));
  metrics.set("net.cc.samples_per_chunk",
              ratio(static_cast<double>(counts.cc_samples),
                    static_cast<double>(plans)));
  metrics.set("net.path_gen.calls", static_cast<double>(counts.path_samples));
  const double attributed = ratio(attributed_ns / 1e9, traced_wall_s);
  metrics.set("trace.attributed_frac", attributed);
  return attributed;
}

void run_trial_workload(const RunOptions& options, RunReport& report,
                        MetricSet& e2e, MetricSet& layers) {
  Checker check{report};
  const Sizes& sizes = options.sizes;
  const bool needs_ttp = options.workload == "rct-mix";
  const exp::FleetTrialConfig config = trial_config(options);
  const int64_t sessions = exp::detail::num_session_plans(config.trial);

  // The warm-up pass runs the job's configuration on a share of its
  // sessions: it takes every code path once, at a fraction of a pass. Its
  // sessions come from a fixed seed, so set-up is the same work in every
  // run.
  exp::FleetTrialConfig warm_config = config;
  warm_config.trial.sessions_per_scheme = std::max(
      1, config.trial.sessions_per_scheme / sizes.warmup_divisor);
  warm_config.trial.seed = kSetupSeed;
  const int64_t warm_sessions =
      exp::detail::num_session_plans(warm_config.trial);

  // Set-up: train the TTP, assemble the schemes, run the untimed warm-up
  // pass. Repeated, and every repetition must rebuild the same model and
  // reproduce the warm-up output.
  exp::SchemeArtifacts artifacts;
  uint64_t model_digest = 0;
  uint64_t warm_digest = 0;
  std::vector<double> setup_s;
  const int setup_reps = options.trace ? 1 : sizes.setup_reps;
  for (int rep = 0; rep < setup_reps; rep++) {
    const double t0 = now_s();
    exp::SchemeArtifacts candidate;
    if (needs_ttp) {
      candidate.ttp_insitu = train_setup_ttp(sizes);
    }
    const exp::FleetTrialResult warm =
        exp::run_fleet_trial(warm_config, candidate);
    setup_s.push_back(now_s() - t0);
    const uint64_t md = needs_ttp ? digest_model(*candidate.ttp_insitu) : 0;
    const uint64_t wd = digest_trial(warm.trial);
    if (rep == 0) {
      artifacts = std::move(candidate);
      model_digest = md;
      warm_digest = wd;
      check.pass(warm_sessions, true, "");
    } else {
      check.pass(warm_sessions, md == model_digest && wd == warm_digest,
                 "set-up repetition " + std::to_string(rep) +
                     " rebuilt a different model or warm-up output");
    }
  }
  check.note("digest.warmup " + hex64(warm_digest));
  if (needs_ttp) {
    check.note("digest.setup_ttp " + hex64(model_digest));
  }

  // Timed passes: the whole trial as one batch job, repeated. The first
  // pass is the reference; every later pass must reproduce its output and
  // the fleet's deterministic metric snapshot, and the driver check below
  // reproduces it independently.
  exp::FleetTrialResult reference;
  uint64_t reference_digest = 0;
  puffer::obs::MetricSnapshot reference_counts;
  std::vector<double> rates;
  std::vector<double> walls;
  const double start = now_s();
  while (static_cast<int>(walls.size()) < sizes.min_timed_reps ||
         now_s() - start < options.seconds) {
    const double t0 = now_s();
    exp::FleetTrialResult result = exp::run_fleet_trial(config, artifacts);
    const double wall = now_s() - t0;
    walls.push_back(wall);
    rates.push_back(static_cast<double>(result.fleet.decisions) / wall);
    const uint64_t digest = digest_trial(result.trial);
    if (walls.size() == 1) {
      reference_digest = digest;
      reference_counts = result.metrics.deterministic_view();
      reference = std::move(result);
      check.pass(sessions, true, "");
    } else {
      check.pass(sessions,
                 digest == reference_digest &&
                     result.metrics.deterministic_view() == reference_counts,
                 "timed pass " + std::to_string(walls.size()) +
                     " differs from the first");
    }
  }
  check.note("digest.trial " + hex64(reference_digest));
  check.note(series_note("setup_s", setup_s));
  check.note(series_note("pass.chunks_per_s", rates));
  // A day here is a simulated day of viewing (watch time of the considered
  // streams), the unit the paper's power analysis budgets in.
  const double viewing_days = viewing_s(reference.trial) / 86400.0;
  e2e.set("chunks_per_s", median(rates));
  e2e.set("day_s", median(walls) / viewing_days);
  e2e.set("setup_s", median(setup_s));
  e2e.set("peak_rss_mb", peak_rss_mib());

  // The driver must reproduce the fleet's figures bit for bit and make
  // exactly the fleet's decisions. Untraced runs check it on four threads;
  // the traced run drives the plans serially and keeps the spans.
  const auto check_driver = [&](const exp::TrialResult& driven,
                                const int64_t decisions,
                                const std::string& which) {
    check.pass(sessions,
               digest_trial(driven) == reference_digest &&
                   decisions == reference.fleet.decisions,
               which + " driver differs from the fleet run (" +
                   std::to_string(decisions) + " vs " +
                   std::to_string(reference.fleet.decisions) + " decisions)");
  };
  if (!options.trace) {
    int64_t decisions = 0;
    const exp::TrialResult driven = run_driver_trial_parallel(
        config.trial, artifacts, options.driver_mpc, kCheckThreads, decisions);
    check_driver(driven, decisions, "parallel");
    return;
  }
  Tracer tracer;
  const double t0 = now_s();
  const exp::TrialResult traced =
      run_driver_trial(config.trial, artifacts, options.driver_mpc, &tracer);
  const double traced_wall = now_s() - t0;
  check_driver(traced, tracer.ledger.span_count(Layer::kAbrPlan), "traced");

  const double t1 = now_s();
  const exp::TrialResult plain =
      run_driver_trial(config.trial, artifacts, options.driver_mpc, nullptr);
  const double plain_wall = now_s() - t1;
  check.pass(sessions, digest_trial(plain) == reference_digest,
             "untraced driver differs from the fleet run");

  const double attributed = ledger_metrics(tracer, traced_wall, layers);
  layers.set("trace.overhead", ratio(traced_wall, plain_wall));
  const auto& fleet = reference.fleet;
  layers.set("fugu.rows_per_gemm",
             ratio(static_cast<double>(fleet.coalesced_rows),
                   static_cast<double>(fleet.gemm_calls)));
  layers.set("fugu.inline_frac",
             ratio(static_cast<double>(fleet.inline_decisions),
                   static_cast<double>(fleet.decisions)));
  layers.set("sim.shard_imbalance", shard_imbalance(fleet));
  layers.set("sim.peak_concurrency", static_cast<double>(fleet.load.peak()));
  if (attributed < kMinAttributedFrac) {
    check.fail("ledger attributes " + std::to_string(attributed) +
               " of the traced wall, below " +
               std::to_string(kMinAttributedFrac));
  }
  if (!options.spans_out.empty()) {
    tracer.ledger.write_csv(options.spans_out);
  }
}

// -------------------------------------------------------------- campaign

exp::CampaignConfig campaign_config(const RunOptions& options,
                                    const int threads,
                                    const std::string& checkpoint_dir) {
  const Sizes& sizes = options.sizes;
  exp::CampaignArm fugu_arm;
  fugu_arm.name = "fugu";
  fugu_arm.scheme = "Fugu";
  fugu_arm.retrain = true;
  fugu_arm.warm_start = true;
  fugu_arm.train.epochs = sizes.campaign_train_epochs;
  fugu_arm.train.max_examples_per_step = 20000;
  exp::CampaignArm bba_arm;
  bba_arm.name = "bba";
  bba_arm.scheme = "BBA";

  exp::CampaignConfig config;
  config.arms = {fugu_arm, bba_arm};
  config.phases = {
      exp::CampaignPhase{net::ScenarioSpec{"puffer"}, sizes.campaign_days}};
  config.telemetry_sessions_per_day = sizes.telemetry_sessions;
  config.eval_sessions_per_day = sizes.eval_sessions;
  config.holdout_sessions_per_day = sizes.holdout_sessions;
  config.seed = options.seed;
  config.num_threads = threads;
  config.checkpoint_dir = checkpoint_dir;
  config.stream.max_stream_chunks = sizes.max_stream_chunks;
  return config;
}

/// A fresh, empty directory under the work dir; removed on destruction.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& tag) {
    static int counter = 0;
    path_ = std::filesystem::path(root) /
            (tag + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter++));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

struct CampaignPass {
  std::vector<exp::DayStats> days;
  double wall_s = 0.0;
};

CampaignPass run_campaign_pass(const RunOptions& options, const int threads) {
  const TempDir dir{options.work_dir, "campaign"};
  exp::Campaign campaign{campaign_config(options, threads, dir.str())};
  const double t0 = now_s();
  CampaignPass pass;
  pass.days = campaign.run().days;
  pass.wall_s = now_s() - t0;
  return pass;
}

int64_t file_bytes(const std::string& path) {
  return static_cast<int64_t>(std::filesystem::file_size(path));
}

/// One campaign day rebuilt from the public calls a day is made of.
struct RebuiltDay {
  exp::DayStats stats;
  fugu::TtpModel retrained;
  fugu::TtpTrainReport train_report;
  int64_t checkpoint_bytes = 0;
  double wall_s = 0.0;
};

/// Day 0 of `config`'s campaign, made of the calls a campaign day makes,
/// from the Fugu arm's `initial` model. With a tracer, every call is a span
/// and the schemes carry timing decorators; without one, the same calls run
/// undecorated, which is the traced day's overhead baseline. The checkpoint
/// step writes the retrained model and the telemetry with save_ttp and
/// save_dataset; it leaves out the campaign's fsync, rename and report
/// writes, which are private to exp::Campaign.
RebuiltDay rebuild_day(const RunOptions& options,
                       const exp::CampaignConfig& config,
                       const std::shared_ptr<const fugu::TtpModel>& initial,
                       Tracer* tracer) {
  Ledger* const ledger = tracer != nullptr ? &tracer->ledger : nullptr;
  const int threads = config.num_threads;
  const net::ScenarioSpec scenario{"puffer"};
  const TempDir dir{options.work_dir, "campaign-day"};
  RebuiltDay out{exp::DayStats{}, *initial, fugu::TtpTrainReport{}, 0, 0.0};
  exp::DayStats& day = out.stats;
  day.day = 0;
  day.scenario = scenario.key();

  const double t0 = now_s();
  fugu::TtpDataset daily;
  fugu::TtpDataset holdout;
  {
    const Scope scope{ledger, Layer::kExpTelemetry};
    daily = exp::collect_telemetry(
        scenario, config.telemetry_sessions_per_day, 0,
        purpose_seed(config.seed, "campaign/telemetry"), threads,
        config.stream);
    holdout = exp::collect_telemetry(
        scenario, config.holdout_sessions_per_day, 0,
        purpose_seed(config.seed, "campaign/holdout"), threads,
        config.stream);
  }
  day.telemetry_streams = daily.size();
  fugu::DataAggregator telemetry;
  for (auto& stream : daily) {
    day.telemetry_chunks += stream.chunks.size();
    telemetry.add_stream(std::move(stream));
  }
  const uint64_t trial_seed =
      puffer::mix64(purpose_seed(config.seed, "campaign/trial"));
  for (const exp::CampaignArm& arm : config.arms) {
    exp::TrialConfig trial;
    trial.schemes = {arm.scheme};
    trial.sessions_per_scheme = config.eval_sessions_per_day;
    trial.scenario = scenario;
    trial.seed = trial_seed;
    trial.day = 0;
    trial.num_threads = threads;
    trial.stream = config.stream;
    exp::SchemeArtifacts artifacts;
    if (arm.retrain) {
      artifacts.ttp_insitu = initial;
    }
    exp::TrialResult result;
    {
      const Scope scope{ledger, Layer::kExpEvalTrial};
      result = exp::run_trial(trial, [&](const std::string& name) {
        return make_scheme(name, artifacts, options.driver_mpc, tracer);
      });
    }
    const exp::SchemeResult& scheme = result.schemes.front();
    exp::ArmDayStats stats;
    stats.arm = arm.name;
    stats.scheme = arm.scheme;
    stats.sessions = scheme.consort.sessions;
    stats.considered = scheme.consort.considered;
    double watch = 0.0, stall = 0.0, ssim = 0.0, startup = 0.0;
    for (const auto& f : scheme.considered) {
      watch += f.watch_time_s;
      stall += f.stall_time_s;
      ssim += f.ssim_mean_db * f.watch_time_s;
      startup += f.startup_delay_s;
    }
    if (!scheme.considered.empty() && watch > 0.0) {
      stats.ssim_mean_db = ssim / watch;
      stats.stall_ratio = stall / watch;
      stats.startup_delay_s =
          startup / static_cast<double>(scheme.considered.size());
    }
    if (arm.retrain) {
      stats.has_model = true;
      const Scope scope{ledger, Layer::kFuguEval};
      const fugu::TtpEvaluation eval = fugu::evaluate_ttp(*initial, holdout);
      stats.cross_entropy = eval.cross_entropy;
      stats.top1_accuracy = eval.top1_accuracy;
      stats.holdout_examples = eval.examples;
    }
    day.arms.push_back(std::move(stats));
  }
  for (size_t i = 0; i < config.arms.size(); i++) {
    const exp::CampaignArm& arm = config.arms[i];
    if (!arm.retrain) {
      continue;
    }
    const fugu::TtpDataset window = telemetry.window(0, arm.train.window_days);
    Rng train_rng = Rng{config.seed}
                        .split("campaign/train")
                        .split(static_cast<uint64_t>(i))
                        .split(0);
    {
      const Scope scope{ledger, Layer::kFuguTrain};
      out.retrained = fugu::train_ttp(arm.ttp, window, 0, arm.train, train_rng,
                                      initial.get(), &out.train_report);
    }
    const Scope scope{ledger, Layer::kExpCheckpoint};
    const std::string model_path = dir.str() + "/" + arm.name + ".ttp";
    const std::string data_path = dir.str() + "/telemetry.bin";
    exp::save_ttp(out.retrained, model_path);
    exp::save_dataset(telemetry.all(), data_path);
    out.checkpoint_bytes += file_bytes(model_path) + file_bytes(data_path);
  }
  out.wall_s = now_s() - t0;
  return out;
}

/// The traced campaign day at one thread: day 0 rebuilt with and without
/// timing decorators. Both must equal the campaign's own day 0 and its
/// retrained model; the traced one's spans are the campaign's ledger.
void traced_campaign_day(const RunOptions& options,
                         const exp::DayStats& reference_day,
                         const double day_s, Checker& check,
                         MetricSet& layers) {
  // The campaign's own first day at one thread gives the initial model and
  // the retrained one to compare with; the timed campaign ran at four.
  const TempDir base_dir{options.work_dir, "campaign-base"};
  const exp::CampaignConfig config =
      campaign_config(options, 1, base_dir.str());
  exp::Campaign base{config};
  const auto initial = std::make_shared<const fugu::TtpModel>(
      *base.deployed_model("fugu"));
  const exp::CampaignResult base_result = base.run(1);
  check.pass(1, base_result.days.at(0) == reference_day,
             "campaign day 0 at one thread differs from the timed campaign "
             "at " + std::to_string(options.threads > 0 ? options.threads : 4) +
                 " threads");
  const uint64_t base_model = digest_model(*base.deployed_model("fugu"));

  const RebuiltDay plain = rebuild_day(options, config, initial, nullptr);
  Tracer tracer;
  const RebuiltDay traced = rebuild_day(options, config, initial, &tracer);
  for (const RebuiltDay* rebuilt : {&plain, &traced}) {
    check.pass(1,
               rebuilt->stats == reference_day &&
                   digest_model(rebuilt->retrained) == base_model,
               std::string(rebuilt == &traced ? "traced" : "untraced") +
                   " campaign day differs from the campaign's day 0");
  }

  ledger_metrics(tracer, traced.wall_s, layers);
  layers.set("fugu.train.examples",
             static_cast<double>(traced.train_report.examples_per_step));
  layers.set("exp.checkpoint.bytes",
             static_cast<double>(traced.checkpoint_bytes));
  layers.set("exp.day.share_of_day_s", ratio(traced.wall_s, day_s));
  layers.set("trace.overhead", ratio(traced.wall_s, plain.wall_s));
  if (!options.spans_out.empty()) {
    tracer.ledger.write_csv(options.spans_out);
  }
}

void run_campaign_workload(const RunOptions& options, RunReport& report,
                           MetricSet& e2e, MetricSet& layers) {
  Checker check{report};
  const Sizes& sizes = options.sizes;
  const int threads = options.threads > 0 ? options.threads : 4;
  const int64_t days = sizes.campaign_days;

  // Set-up: configuration plus an untimed warm-up campaign, repeated; each
  // repetition must reproduce the first one's DayStats.
  std::vector<double> setup_s;
  std::vector<exp::DayStats> reference;
  const int setup_reps = options.trace ? 1 : sizes.setup_reps;
  for (int rep = 0; rep < setup_reps; rep++) {
    const double t0 = now_s();
    CampaignPass warm = run_campaign_pass(options, threads);
    setup_s.push_back(now_s() - t0);
    if (rep == 0) {
      reference = std::move(warm.days);
      check.pass(days, static_cast<int64_t>(reference.size()) == days,
                 "warm-up campaign ran a different number of days");
    } else {
      check.pass(days, warm.days == reference,
                 "set-up repetition " + std::to_string(rep) +
                     " produced different DayStats");
    }
  }
  check.note("digest.days " + hex64(digest_days(reference)));

  std::vector<double> day_walls;
  std::vector<double> rates;
  const double start = now_s();
  while (static_cast<int>(day_walls.size()) < sizes.min_timed_reps ||
         now_s() - start < options.seconds) {
    const CampaignPass pass = run_campaign_pass(options, threads);
    uint64_t chunks = 0;
    for (const auto& day : pass.days) {
      chunks += day.telemetry_chunks;
    }
    day_walls.push_back(pass.wall_s / static_cast<double>(days));
    rates.push_back(static_cast<double>(chunks) / pass.wall_s);
    check.pass(days, pass.days == reference,
               "timed campaign " + std::to_string(day_walls.size()) +
                   " differs from the warm-up campaign");
  }
  check.note(series_note("setup_s", setup_s));
  check.note(series_note("pass.day_s", day_walls));
  const double day_s = median(day_walls);
  e2e.set("chunks_per_s", median(rates));
  e2e.set("day_s", day_s);
  e2e.set("setup_s", median(setup_s));
  e2e.set("peak_rss_mb", peak_rss_mib());

  if (options.trace) {
    traced_campaign_day(options, reference.at(0), day_s, check, layers);
  }
}

}  // namespace

RunReport run_workload(const RunOptions& options) {
  RunReport report;
  MetricSet e2e;
  MetricSet layers;
  try {
    const auto& names = workload_names();
    if (std::find(names.begin(), names.end(), options.workload) ==
        names.end()) {
      throw std::invalid_argument("unknown workload '" + options.workload +
                                  "'");
    }
    std::filesystem::create_directories(options.work_dir);
    if (options.workload == "campaign") {
      run_campaign_workload(options, report, e2e, layers);
    } else {
      run_trial_workload(options, report, e2e, layers);
    }
    // Layers a workload does not run report zero (e.g. the campaign's
    // exp.* calls on the trial workloads).
    layers.zero_unset(per_layer_metrics());
    if (options.trace) {
      layers.emit(per_layer_metrics(), report);
    } else {
      e2e.emit(end_to_end_metrics(), report);
    }
  } catch (const std::exception& error) {
    report.correct = false;
    report.failed = std::max<int64_t>(report.failed, 1);
    report.attempted = std::max(report.attempted, report.failed);
    report.metrics.clear();
    report.notes.push_back(std::string("ERROR: ") + error.what());
  }
  return report;
}

}  // namespace perfbench
