#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "abr/bba.hh"
#include "exp/fleet_trial.hh"
#include "exp/insitu.hh"
#include "exp/registry.hh"
#include "exp/trial.hh"
#include "fugu/batch_ttp.hh"
#include "fugu/fugu.hh"
#include "fugu/ttp_trainer.hh"
#include "fugu/ttp_predictor.hh"
#include "obs/metrics.hh"
#include "obs/trace.hh"
#include "sim/arrivals.hh"
#include "sim/fleet.hh"
#include "stats/load_series.hh"
#include "test_helpers.hh"
#include "util/require.hh"

namespace puffer {
namespace {

// ---------------------------------------------------------------------------
// Arrival processes
// ---------------------------------------------------------------------------

TEST(Arrivals, PoissonMatchesRequestedRate) {
  sim::PoissonArrivals arrivals{2.0};
  Rng rng{1};
  const std::vector<double> times = sim::sample_arrivals(arrivals, rng, 4000);
  ASSERT_EQ(times.size(), 4000u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  // Mean inter-arrival should be ~1/rate = 0.5 s.
  EXPECT_NEAR(times.back() / 4000.0, 0.5, 0.05);
}

TEST(Arrivals, DeterministicGivenSeed) {
  sim::ArrivalSpec spec;
  spec.kind = "diurnal";
  const auto process = sim::make_arrival_process(spec);
  Rng rng_a{7}, rng_b{7};
  const auto a = sim::sample_arrivals(*process, rng_a, 200);
  const auto b = sim::sample_arrivals(*process, rng_b, 200);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]));
  }
}

TEST(Arrivals, DiurnalRatePeaksAtPrimeTime) {
  sim::ArrivalSpec spec;
  spec.kind = "diurnal";
  spec.rate_per_s = 4.0;
  spec.trough_fraction = 0.25;
  sim::DiurnalArrivals arrivals{spec};
  EXPECT_DOUBLE_EQ(arrivals.rate_at(spec.peak_time_s), 4.0);
  // Half a period away the rate bottoms out at trough_fraction * peak.
  EXPECT_NEAR(arrivals.rate_at(spec.peak_time_s + spec.period_s / 2.0),
              1.0, 1e-9);
  EXPECT_DOUBLE_EQ(arrivals.peak_rate(), 4.0);
}

TEST(Arrivals, FlashCrowdSurgesDuringBurst) {
  sim::ArrivalSpec spec;
  spec.kind = "flash-crowd";
  spec.rate_per_s = 1.0;
  spec.burst_start_s = 100.0;
  spec.burst_duration_s = 50.0;
  spec.burst_multiplier = 20.0;
  const auto process = sim::make_arrival_process(spec);
  EXPECT_DOUBLE_EQ(process->rate_at(99.0), 1.0);
  EXPECT_DOUBLE_EQ(process->rate_at(100.0), 20.0);
  EXPECT_DOUBLE_EQ(process->rate_at(149.9), 20.0);
  EXPECT_DOUBLE_EQ(process->rate_at(150.0), 1.0);

  Rng rng{3};
  const auto times = sim::sample_arrivals(*process, rng, 600);
  const auto in_burst = std::count_if(times.begin(), times.end(), [&](double t) {
    return t >= 100.0 && t < 150.0;
  });
  // Expected ~1000/(1000+... ) — the burst window carries 20x the density of
  // an equal-length quiet window; just require a strong surge.
  const auto before_burst = std::count_if(
      times.begin(), times.end(), [](double t) { return t < 50.0; });
  EXPECT_GT(in_burst, 5 * before_burst);
}

TEST(Arrivals, UnknownKindRejected) {
  sim::ArrivalSpec spec;
  spec.kind = "carrier-pigeon";
  EXPECT_THROW(static_cast<void>(sim::make_arrival_process(spec)),
               RequirementError);
}

// ---------------------------------------------------------------------------
// Load time series
// ---------------------------------------------------------------------------

TEST(LoadSeries, StepFunctionPeakAndMean) {
  stats::LoadSeries load;
  // Out-of-order insertion: completion discovered before a later arrival.
  load.add(0.0, +1);
  load.add(4.0, -1);
  load.add(1.0, +1);
  load.add(3.0, -1);
  load.finalize();
  EXPECT_EQ(load.peak(), 2);
  EXPECT_EQ(load.level_at(0.5), 1);
  EXPECT_EQ(load.level_at(2.0), 2);
  EXPECT_EQ(load.level_at(3.5), 1);
  EXPECT_EQ(load.level_at(4.0), 0);
  EXPECT_EQ(load.level_at(-1.0), 0);
  // Integral: 1*1 + 2*2 + 1*1 over a span of 4.
  EXPECT_NEAR(load.time_weighted_mean(), 6.0 / 4.0, 1e-12);
}

TEST(LoadSeries, SimultaneousDeltasMerge) {
  stats::LoadSeries load;
  load.add(1.0, +1);
  load.add(1.0, -1);  // zero-duration session leaves no trace
  load.finalize();
  EXPECT_TRUE(load.points().empty());
  EXPECT_EQ(load.peak(), 0);
}

TEST(LoadSeries, EmptySeries) {
  stats::LoadSeries load;
  load.finalize();
  EXPECT_EQ(load.peak(), 0);
  EXPECT_DOUBLE_EQ(load.time_weighted_mean(), 0.0);
}

/// Pinned boundary semantics: queries on an empty series (even one never
/// finalized) are defined, and level_at before the first point is 0.
TEST(LoadSeries, BoundaryQueriesArePinned) {
  const stats::LoadSeries untouched;
  EXPECT_EQ(untouched.peak(), 0);
  EXPECT_DOUBLE_EQ(untouched.time_weighted_mean(), 0.0);
  EXPECT_EQ(untouched.level_at(0.0), 0);
  EXPECT_EQ(untouched.level_at(-100.0), 0);
  EXPECT_TRUE(untouched.points().empty());

  stats::LoadSeries load;
  load.add(10.0, +1);
  load.add(12.0, -1);
  load.finalize();
  EXPECT_EQ(load.level_at(9.999), 0);      // before the first point
  EXPECT_EQ(load.level_at(-1e9), 0);
  EXPECT_EQ(load.level_at(10.0), 1);       // at the first point
}

/// Pinned boundary semantics: a single-point (zero-span) series has a
/// defined mean — the level it ends at — instead of a 0/0 division.
TEST(LoadSeries, SinglePointMeanIsItsLevel) {
  stats::LoadSeries load;
  load.add(2.0, +1);
  load.finalize();
  ASSERT_EQ(load.points().size(), 1u);
  EXPECT_EQ(load.peak(), 1);
  EXPECT_DOUBLE_EQ(load.time_weighted_mean(), 1.0);

  // Same-time deltas merge, so several events can still leave one point.
  stats::LoadSeries merged;
  merged.add(5.0, +1);
  merged.add(5.0, +1);
  merged.add(5.0, +1);
  merged.finalize();
  ASSERT_EQ(merged.points().size(), 1u);
  EXPECT_DOUBLE_EQ(merged.time_weighted_mean(), 3.0);
}

/// merge_from reproduces the combined series exactly — the finalized series
/// is a function of the delta multiset, however it was partitioned (this is
/// what makes the sharded engine's merged load bit-identical).
TEST(LoadSeries, MergeFromMatchesCombinedSeries) {
  stats::LoadSeries combined, shard_a, shard_b;
  const auto add_all = [](stats::LoadSeries& series,
                          std::initializer_list<std::pair<double, int>> events) {
    for (const auto& [t, d] : events) {
      series.add(t, d);
    }
  };
  add_all(combined, {{0.0, +1}, {4.0, -1}, {1.0, +1}, {3.0, -1}, {1.0, +1},
                     {2.5, -1}});
  add_all(shard_a, {{0.0, +1}, {4.0, -1}, {1.0, +1}, {2.5, -1}});
  add_all(shard_b, {{1.0, +1}, {3.0, -1}});
  combined.finalize();

  // Merge one finalized shard and one pending shard — both forms must fold
  // identically.
  shard_a.finalize();
  stats::LoadSeries merged;
  merged.merge_from(shard_a);
  merged.merge_from(shard_b);
  merged.finalize();

  ASSERT_EQ(merged.points().size(), combined.points().size());
  for (size_t i = 0; i < merged.points().size(); i++) {
    EXPECT_EQ(std::bit_cast<uint64_t>(merged.points()[i].time_s),
              std::bit_cast<uint64_t>(combined.points()[i].time_s));
    EXPECT_EQ(merged.points()[i].level, combined.points()[i].level);
  }
  EXPECT_EQ(merged.peak(), combined.peak());
  EXPECT_EQ(std::bit_cast<uint64_t>(merged.time_weighted_mean()),
            std::bit_cast<uint64_t>(combined.time_weighted_mean()));
}

TEST(LoadSeries, ReFinalizeAfterMoreDeltas) {
  stats::LoadSeries load;
  load.add(0.0, +1);
  load.add(2.0, -1);
  load.finalize();
  EXPECT_EQ(load.peak(), 1);
  // Add more events after finalizing; re-finalize folds them in.
  load.add(1.0, +1);
  load.add(3.0, -1);
  load.finalize();
  EXPECT_EQ(load.peak(), 2);
  EXPECT_EQ(load.level_at(1.5), 2);
  EXPECT_EQ(load.level_at(2.5), 1);
  EXPECT_THROW(static_cast<void>(load.merge_from(load)), RequirementError);
}

// ---------------------------------------------------------------------------
// Batched TTP inference
// ---------------------------------------------------------------------------

void expect_same_distribution(const abr::TxTimeDistribution& a,
                              const abr::TxTimeDistribution& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); i++) {
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].time_s),
              std::bit_cast<uint64_t>(b[i].time_s));
    EXPECT_EQ(std::bit_cast<uint64_t>(a[i].probability),
              std::bit_cast<uint64_t>(b[i].probability));
  }
}

abr::AbrObservation fake_observation(const uint64_t seed) {
  Rng rng{seed};
  abr::AbrObservation obs;
  obs.buffer_s = rng.uniform(0.0, 15.0);
  obs.tcp.cwnd_pkts = rng.uniform(10.0, 300.0);
  obs.tcp.in_flight_pkts = rng.uniform(0.0, 200.0);
  obs.tcp.min_rtt_s = rng.uniform(0.01, 0.3);
  obs.tcp.srtt_s = rng.uniform(0.01, 0.4);
  obs.tcp.delivery_rate_bps = rng.uniform(1e5, 5e7);
  return obs;
}

fugu::TtpHistory fake_history(const uint64_t seed, const int chunks) {
  Rng rng{seed};
  fugu::TtpHistory history;
  for (int i = 0; i < chunks; i++) {
    history.record(rng.uniform(0.1, 4.0), rng.uniform(0.05, 3.0),
                   fugu::kTtpHistory);
  }
  return history;
}

std::vector<abr::TxTimeQuery> fake_queries(const uint64_t seed) {
  Rng rng{seed};
  std::vector<abr::TxTimeQuery> queries;
  for (int step = 0; step < 5; step++) {
    for (int rung = 0; rung < media::kNumRungs; rung++) {
      queries.push_back({step, rng.uniform_int(50'000, 6'000'000)});
    }
  }
  return queries;
}

/// Acceptance criterion (c): the fused matrix-matrix path answers exactly
/// what the scalar forward_one path answers, bit for bit.
TEST(BatchTtp, PredictBatchMatchesScalarForwardOne) {
  const auto model = std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 42);
  for (const uint64_t seed : {1u, 2u, 3u}) {
    fugu::TtpPredictor scalar{model};
    fugu::BatchTtpPredictor batched{model};
    const abr::AbrObservation obs = fake_observation(seed);
    const fugu::TtpHistory history = fake_history(seed, 6);
    for (int i = 0; i < 6; i++) {
      abr::ChunkRecord record;
      record.size_bytes = static_cast<int64_t>(history.sizes_mb[i] * 1e6);
      record.transmission_time_s = history.tx_times_s[i];
      scalar.on_chunk_complete(record);
      batched.on_chunk_complete(record);
    }
    scalar.begin_decision(obs);
    batched.begin_decision(obs);

    const std::vector<abr::TxTimeQuery> queries = fake_queries(seed);
    std::vector<abr::TxTimeDistribution> scalar_out, batched_out;
    scalar.predict_batch(queries, scalar_out);    // default loop over predict()
    batched.predict_batch(queries, batched_out);  // one GEMM per step-network
    ASSERT_EQ(scalar_out.size(), batched_out.size());
    for (size_t i = 0; i < scalar_out.size(); i++) {
      expect_same_distribution(scalar_out[i], batched_out[i]);
    }
    // The scalar predict() entry point agrees too.
    expect_same_distribution(scalar.predict(2, 1'234'567),
                             batched.predict(2, 1'234'567));
  }
}

TEST(BatchTtp, PointEstimateVariantMatches) {
  const auto model = std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 7);
  fugu::TtpPredictor scalar{model, /*point_estimate=*/true};
  fugu::BatchTtpPredictor batched{model, /*point_estimate=*/true};
  const abr::AbrObservation obs = fake_observation(11);
  scalar.begin_decision(obs);
  batched.begin_decision(obs);
  const std::vector<abr::TxTimeQuery> queries = fake_queries(11);
  std::vector<abr::TxTimeDistribution> scalar_out, batched_out;
  scalar.predict_batch(queries, scalar_out);
  batched.predict_batch(queries, batched_out);
  ASSERT_EQ(scalar_out.size(), batched_out.size());
  for (size_t i = 0; i < scalar_out.size(); i++) {
    ASSERT_EQ(batched_out[i].size(), 1u);
    expect_same_distribution(scalar_out[i], batched_out[i]);
  }
}

/// Cross-session coalescing: several sessions staged into one shared batch
/// (one GEMM across all of them per step-network) answer exactly what each
/// would have answered alone.
TEST(BatchTtp, SharedBatchCoalescesAcrossSessionsExactly) {
  const auto model = std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 9);
  media::VbrVideoSource video{media::default_channels()[0], 21};
  std::vector<media::ChunkOptions> lookahead;
  for (int k = 0; k < 5; k++) {
    lookahead.push_back(video.chunk_options(k));
  }
  // MPC's query order over this lookahead.
  std::vector<abr::TxTimeQuery> queries;
  for (int step = 0; step < 5; step++) {
    for (int rung = 0; rung < media::kNumRungs; rung++) {
      queries.push_back(
          {step, lookahead[static_cast<size_t>(step)].version(rung).size_bytes});
    }
  }

  constexpr int kSessions = 5;
  fugu::TtpInferenceBatch shared;
  std::vector<std::unique_ptr<fugu::BatchTtpPredictor>> staged_predictors;
  for (int s = 0; s < kSessions; s++) {
    auto predictor = std::make_unique<fugu::BatchTtpPredictor>(model);
    const abr::AbrObservation obs = fake_observation(100 + s);
    predictor->begin_decision(obs);
    predictor->stage(obs, lookahead, /*horizon=*/5, shared);
    staged_predictors.push_back(std::move(predictor));
  }
  EXPECT_EQ(shared.rows_pending(), kSessions * 5 * media::kNumRungs);
  shared.run();
  EXPECT_EQ(shared.total_forward_calls(), 5);  // one GEMM per step-network

  for (int s = 0; s < kSessions; s++) {
    fugu::BatchTtpPredictor alone{model};
    const abr::AbrObservation obs = fake_observation(100 + s);
    alone.begin_decision(obs);
    std::vector<abr::TxTimeDistribution> expected, coalesced;
    alone.predict_batch(queries, expected);
    staged_predictors[static_cast<size_t>(s)]->predict_batch(queries,
                                                             coalesced);
    ASSERT_EQ(expected.size(), coalesced.size());
    for (size_t i = 0; i < expected.size(); i++) {
      expect_same_distribution(expected[i], coalesced[i]);
    }
  }
}

// ---------------------------------------------------------------------------
// Fleet trials
// ---------------------------------------------------------------------------

/// Schemes exercising all three decision paths: coalesced learned inference
/// (Fugu via BatchTtpPredictor), classical MPC (default predict_batch) and
/// a predictor-free scheme.
exp::SchemeFactory fleet_factory() {
  static const auto model =
      std::make_shared<fugu::TtpModel>(fugu::TtpConfig{}, 20190119);
  return [](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "Fugu") {
      return fugu::make_fugu(model, name);
    }
    return exp::make_scheme(name, exp::SchemeArtifacts{});
  };
}

exp::FleetTrialConfig fleet_config() {
  exp::FleetTrialConfig config;
  config.trial.schemes = {"Fugu", "MPC-HM", "BBA"};
  config.trial.sessions_per_scheme = 5;
  config.trial.seed = 20190119;
  config.trial.collect_logs = true;
  config.trial.day = 1;
  config.trial.num_threads = 1;
  config.trial.stream.max_stream_chunks = 60;  // bound Pareto-tail streams
  config.arrivals.kind = "poisson";
  config.arrivals.rate_per_s = 0.05;  // sessions overlap heavily
  return config;
}

/// Acceptance criterion (a): the fleet interleaving of non-interacting
/// sessions is figure-identical to the session-sequential baseline.
TEST(FleetTrial, MatchesSequentialBaselineInRctMode) {
  const exp::FleetTrialConfig config = fleet_config();
  const exp::TrialResult sequential =
      exp::detail::run_trial_serial(config.trial, fleet_factory());
  const exp::FleetTrialResult fleet =
      exp::run_fleet_trial(config, fleet_factory());
  test::expect_identical_trials(sequential, fleet.trial);

  const int64_t total =
      static_cast<int64_t>(config.trial.schemes.size()) *
      config.trial.sessions_per_scheme;
  EXPECT_EQ(fleet.fleet.sessions, total);
  EXPECT_GT(fleet.fleet.decisions, 0);
  EXPECT_GT(fleet.fleet.gemm_calls, 0);       // Fugu sessions coalesced
  EXPECT_GT(fleet.fleet.coalesced_rows, 0);
  EXPECT_GT(fleet.fleet.inline_decisions, 0);  // BBA / MPC-HM ran inline
  EXPECT_GE(fleet.fleet.load.peak(), 2);       // sessions actually overlapped
  EXPECT_LE(fleet.fleet.load.peak(), total);
  EXPECT_GT(fleet.fleet.virtual_duration_s, 0.0);
}

TEST(FleetTrial, MatchesSequentialBaselineInPairedMode) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.paired_paths = true;
  config.trial.sessions_per_scheme = 4;
  const exp::TrialResult sequential =
      exp::detail::run_trial_serial(config.trial, fleet_factory());
  const exp::FleetTrialResult fleet =
      exp::run_fleet_trial(config, fleet_factory());
  test::expect_identical_trials(sequential, fleet.trial);
}

void expect_same_load(const stats::LoadSeries& a, const stats::LoadSeries& b) {
  EXPECT_EQ(a.peak(), b.peak());
  test::expect_same_bits(a.time_weighted_mean(), b.time_weighted_mean());
  ASSERT_EQ(a.points().size(), b.points().size());
  for (size_t i = 0; i < a.points().size(); i++) {
    test::expect_same_bits(a.points()[i].time_s, b.points()[i].time_s);
    EXPECT_EQ(a.points()[i].level, b.points()[i].level);
  }
}

/// Acceptance criterion (b): shards are the only parallelism, and neither
/// the shard count (1/2/4/8) nor the worker-thread count (1/2/4) changes a
/// bit. Every cell equals the serial reference (which never coalesces
/// inference), and its load series and partition-invariant engine stats
/// equal the one-shard run's. The batching counters depend on shard-local batch membership, so
/// they are compared across thread counts at a fixed shard count only.
TEST(FleetTrial, BitIdenticalAcrossShardAndThreadMatrix) {
  const exp::TrialResult serial =
      exp::detail::run_trial_serial(fleet_config().trial, fleet_factory());
  exp::FleetTrialConfig config = fleet_config();
  exp::FleetTrialResult one_shard;
  for (const int shards : {1, 2, 4, 8}) {
    config.num_shards = shards;
    config.trial.num_threads = 1;
    const exp::FleetTrialResult base =
        exp::run_fleet_trial(config, fleet_factory());
    EXPECT_EQ(base.fleet.num_shards, shards);
    EXPECT_GT(base.fleet.coalesced_rows, 0);
    test::expect_identical_trials(serial, base.trial);
    if (shards == 1) {
      one_shard = base;
    }
    EXPECT_EQ(one_shard.fleet.sessions, base.fleet.sessions);
    EXPECT_EQ(one_shard.fleet.decisions, base.fleet.decisions);
    test::expect_same_bits(one_shard.fleet.virtual_duration_s,
                           base.fleet.virtual_duration_s);
    expect_same_load(one_shard.fleet.load, base.fleet.load);
    for (const int threads : {2, 4}) {
      config.trial.num_threads = threads;
      const exp::FleetTrialResult run =
          exp::run_fleet_trial(config, fleet_factory());
      test::expect_identical_trials(serial, run.trial);
      EXPECT_EQ(base.fleet.decisions, run.fleet.decisions);
      EXPECT_EQ(base.fleet.coalesced_rows, run.fleet.coalesced_rows);
      EXPECT_EQ(base.fleet.gemm_calls, run.fleet.gemm_calls);
      EXPECT_EQ(base.fleet.inline_decisions, run.fleet.inline_decisions);
      expect_same_load(base.fleet.load, run.fleet.load);
    }
  }
}

/// Paired mode under sharding: shard_group colocates a plan's per-scheme
/// task copies on one shard (they share an immutable plan), and the merged
/// trial stays bit-identical to the sequential baseline.
TEST(FleetTrial, PairedModeBitIdenticalAcrossShardCounts) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.paired_paths = true;
  config.trial.sessions_per_scheme = 4;
  config.trial.num_threads = 4;
  const exp::TrialResult sequential =
      exp::detail::run_trial_serial(config.trial, fleet_factory());
  for (const int shards : {1, 2, 4, 8}) {
    config.num_shards = shards;
    const exp::FleetTrialResult fleet =
        exp::run_fleet_trial(config, fleet_factory());
    test::expect_identical_trials(sequential, fleet.trial);
  }
}

// ---------------------------------------------------------------------------
// run_trial: the sharded fleet is the one trial executor
// ---------------------------------------------------------------------------

/// collect_logs is on so the checks also cover merge ordering of the
/// telemetry stream logs, not just the Figure A1 accounting.
exp::TrialConfig rct_trial_config() {
  exp::TrialConfig config;
  config.schemes = {"BBA", "MPC-HM"};
  config.sessions_per_scheme = 10;
  config.seed = 20190119;
  config.collect_logs = true;
  config.day = 2;
  config.num_threads = 1;
  return config;
}

exp::TrialConfig paired_trial_config() {
  exp::TrialConfig config = rct_trial_config();
  config.paired_paths = true;
  config.sessions_per_scheme = 6;
  return config;
}

exp::TrialResult serial_reference(const exp::TrialConfig& config) {
  return exp::detail::run_trial_serial(config, [](const std::string& name) {
    return exp::make_scheme(name, exp::SchemeArtifacts{});
  });
}

TEST(RunTrial, MatchesSerialReferenceInRctMode) {
  const exp::SchemeArtifacts none;
  exp::TrialConfig config = rct_trial_config();
  const exp::TrialResult serial = serial_reference(config);
  for (const int threads : {2, 4, 8}) {
    config.num_threads = threads;
    test::expect_identical_trials(serial, exp::run_trial(config, none));
  }
}

TEST(RunTrial, MatchesSerialReferenceInPairedMode) {
  const exp::SchemeArtifacts none;
  exp::TrialConfig config = paired_trial_config();
  const exp::TrialResult serial = serial_reference(config);
  for (const int threads : {2, 4, 8}) {
    config.num_threads = threads;
    test::expect_identical_trials(serial, exp::run_trial(config, none));
  }
}

TEST(RunTrial, ThreeThreadsMatchSerialReference) {
  exp::TrialConfig config = rct_trial_config();
  config.num_threads = 3;
  test::expect_identical_trials(serial_reference(config),
                                exp::run_trial(config, exp::SchemeArtifacts{}));
}

TEST(RunTrial, MoreThreadsThanSessionsIsFine) {
  exp::TrialConfig config = paired_trial_config();
  config.sessions_per_scheme = 2;
  config.num_threads = 16;
  test::expect_identical_trials(serial_reference(config),
                                exp::run_trial(config, exp::SchemeArtifacts{}));
}

TEST(RunTrial, FactoryErrorsPropagate) {
  exp::TrialConfig config = rct_trial_config();
  config.schemes = {"HAL9000"};  // unknown scheme: factory throws
  config.num_threads = 4;
  EXPECT_THROW(
      static_cast<void>(exp::run_trial(config, exp::SchemeArtifacts{})),
      RequirementError);
}

TEST(FleetEngine, ResolvedNumThreadsIsAtLeastOne) {
  const auto resolved = [](const int requested) {
    return sim::FleetEngine{{.num_threads = requested}}.resolved_num_threads();
  };
  EXPECT_GE(resolved(0), 1);
  EXPECT_EQ(resolved(5), 5);
  EXPECT_GE(resolved(-3), 1);
}

/// Kill mid-merge: a scheme factory that fails partway through a sharded
/// run (while other shards are mid-flight and the streaming merge frontier
/// is active) must propagate the failure out of run_fleet_trial — no
/// deadlock, no partially-merged result returned.
TEST(FleetTrial, FactoryFailureMidRunPropagates) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.num_threads = 2;
  config.num_shards = 2;
  const exp::SchemeFactory broken =
      [](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "BBA") {
      return nullptr;  // run_fleet_trial's require() fires on a shard worker
    }
    return fleet_factory()(name);
  };
  EXPECT_THROW(static_cast<void>(exp::run_fleet_trial(config, broken)),
               RequirementError);
}

/// Exception-propagation determinism: the engine submits shard jobs in
/// ascending shard order, and ThreadPool selects the rethrown exception by
/// submission index — so even when a *higher* shard fails first on the
/// wall clock, the lowest failing shard's error is the one observed, every
/// time.
class ExplodingTask final : public sim::FleetTask {
 public:
  ExplodingTask(std::string message, const int decisions_before_failure)
      : message_(std::move(message)), remaining_(decisions_before_failure) {}

  Step prepare() override {
    if (remaining_ <= 0) {
      throw std::runtime_error(message_);
    }
    return Step::kDecision;
  }
  bool stage(fugu::TtpInferenceBatch& /*batch*/) override { return false; }
  void finish_chunk() override {
    remaining_--;
    elapsed_ += 1.0;
  }
  [[nodiscard]] double elapsed_s() const override { return elapsed_; }

 private:
  std::string message_;
  int remaining_;
  double elapsed_ = 0.0;
};

TEST(FleetEngine, ShardFailureSelectsLowestShardDeterministically) {
  sim::FleetConfig config;
  config.num_threads = 2;
  config.num_shards = 2;
  const std::vector<double> arrivals = {0.0, 0.0, 0.0, 0.0};
  const auto factory = [](const int64_t /*session*/,
                          const int shard) -> std::unique_ptr<sim::FleetTask> {
    // Shard 0 fails only after 200 decisions (late on the wall clock);
    // shard 1 fails at its very first arrival.
    if (shard == 0) {
      return std::make_unique<ExplodingTask>("shard-0 failed", 200);
    }
    return std::make_unique<ExplodingTask>("shard-1 failed", 0);
  };
  for (int iteration = 0; iteration < 10; iteration++) {
    try {
      static_cast<void>(sim::FleetEngine{config}.run(arrivals, factory));
      FAIL() << "run() must rethrow the failing shard's exception";
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "shard-0 failed");
    }
  }
}

TEST(FleetTrial, FlashCrowdDrivesConcurrencySpike) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.schemes = {"BBA"};
  config.trial.sessions_per_scheme = 30;
  config.arrivals.kind = "flash-crowd";
  config.arrivals.rate_per_s = 0.01;
  config.arrivals.burst_start_s = 50.0;
  config.arrivals.burst_duration_s = 40.0;
  config.arrivals.burst_multiplier = 400.0;
  const exp::FleetTrialResult result =
      exp::run_fleet_trial(config, fleet_factory());
  // The burst crams most arrivals into a 40 s window, so concurrency there
  // must dwarf the quiet baseline.
  EXPECT_GE(result.fleet.load.peak(), 8);
}

// ---------------------------------------------------------------------------
// Contention groups (shared bottlenecks)
// ---------------------------------------------------------------------------

exp::FleetTrialConfig contention_config(const std::string& topology,
                                        const int group_size) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.scenario = net::ScenarioSpec{"edge-contention"};
  config.contention = exp::make_contention_spec(topology, group_size);
  return config;
}

/// Tentpole acceptance: contention groups are single engine tasks, so the
/// fleet == sequential bitwise contract survives any shard count and thread
/// count with shared bottlenecks in play — results, load series, and the
/// per-group fairness indices all bit-identical.
TEST(FleetTrial, ContentionBitIdenticalAcrossShardAndThreadCounts) {
  exp::FleetTrialConfig config = contention_config("edge", 4);
  config.num_shards = 1;
  const exp::FleetTrialResult baseline =
      exp::run_fleet_trial(config, fleet_factory());
  ASSERT_FALSE(baseline.group_fairness.empty());
  for (const int shards : {1, 2, 4, 8}) {
    for (const int threads : {2, 4}) {
      config.num_shards = shards;
      config.trial.num_threads = threads;
      const exp::FleetTrialResult run =
          exp::run_fleet_trial(config, fleet_factory());
      test::expect_identical_trials(baseline.trial, run.trial);
      EXPECT_EQ(baseline.fleet.sessions, run.fleet.sessions);
      EXPECT_EQ(baseline.fleet.decisions, run.fleet.decisions);
      test::expect_same_bits(baseline.fleet.virtual_duration_s,
                             run.fleet.virtual_duration_s);
      expect_same_load(baseline.fleet.load, run.fleet.load);
      ASSERT_EQ(baseline.group_fairness.size(), run.group_fairness.size());
      for (size_t g = 0; g < baseline.group_fairness.size(); g++) {
        test::expect_same_bits(baseline.group_fairness[g],
                               run.group_fairness[g]);
      }
    }
  }
}

/// Shape and sanity of a contention run: one group per group_size plans,
/// every session still counted, fairness indices in (0, 1].
TEST(FleetTrial, ContentionGroupShapeAndFairness) {
  for (const char* topology : {"edge", "tower", "wifi"}) {
    const exp::FleetTrialConfig config = contention_config(topology, 4);
    const exp::FleetTrialResult result =
        exp::run_fleet_trial(config, fleet_factory());
    const int64_t total = static_cast<int64_t>(config.trial.schemes.size()) *
                          config.trial.sessions_per_scheme;
    EXPECT_EQ(result.fleet.sessions, total);
    EXPECT_EQ(result.group_fairness.size(),
              static_cast<size_t>((total + 3) / 4));
    int64_t consort_sessions = 0;
    for (const auto& scheme : result.trial.schemes) {
      consort_sessions += scheme.consort.sessions;
    }
    EXPECT_EQ(consort_sessions, total);
    for (const double fairness : result.group_fairness) {
      EXPECT_GT(fairness, 0.0);
      EXPECT_LE(fairness, 1.0);
    }
  }
}

std::string hex(const double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%a", value);
  return std::string{buf};
}

/// A trial's results as text rows, one per scheme: the CONSORT counts and
/// hex-float sums of each StreamFigures field (plus session durations).
std::vector<std::string> scheme_digest(const std::string& label,
                                       const exp::TrialResult& trial) {
  std::vector<std::string> rows;
  for (const exp::SchemeResult& scheme : trial.schemes) {
    const exp::ConsortCounts& c = scheme.consort;
    std::string row = label;
    row += ' ';
    row += scheme.scheme;
    row += " consort";
    for (const int64_t n : {c.sessions, c.streams, c.never_began,
                            c.under_min_watch, c.decoder_failure, c.truncated,
                            c.considered}) {
      row += ' ';
      row += std::to_string(n);
    }
    std::array<double, 9> sums{};
    for (const stats::StreamFigures& f : scheme.considered) {
      sums[0] += f.watch_time_s;
      sums[1] += f.stall_time_s;
      sums[2] += f.startup_delay_s;
      sums[3] += f.ssim_mean_db;
      sums[4] += f.ssim_variation_db;
      sums[5] += f.first_chunk_ssim_db;
      sums[6] += f.mean_bitrate_mbps;
      sums[7] += f.mean_delivery_rate_mbps;
    }
    for (const double d : scheme.session_durations_s) {
      sums[8] += d;
    }
    row += " sums";
    for (const double sum : sums) {
      row += ' ';
      row += hex(sum);
    }
    rows.push_back(row);
  }
  return rows;
}

/// Every bit a zero-fault contention run produces, as text rows: the scheme
/// rows, then each group's fairness index, then the contention.* byte
/// counters.
std::vector<std::string> contention_digest(const std::string& label,
                                           const exp::FleetTrialResult& run) {
  std::vector<std::string> rows = scheme_digest(label, run.trial);
  std::string fairness = label;
  fairness += " fairness";
  for (const double f : run.group_fairness) {
    fairness += ' ';
    fairness += hex(f);
  }
  rows.push_back(fairness);
  std::string bytes = label;
  bytes += " bytes";
  for (const char* name :
       {"contention.groups", "contention.offered_bytes",
        "contention.delivered_bytes", "contention.lost_bytes"}) {
    const obs::MetricSnapshot::Metric* metric = run.metrics.find(name);
    bytes += ' ';
    bytes += std::to_string(metric != nullptr ? metric->value : -1);
  }
  rows.push_back(bytes);
  return rows;
}

// Captured before the contention-group members moved onto exp::SessionTask.
// Regenerate only for a documented behaviour change: on a mismatch the test
// prints the actual rows, ready to paste.
const std::vector<std::string> kContentionPinned = {
    // clang-format off
    "edge/2 Fugu consort 3 7 2 4 0 0 1 sums 0x1.20c49ba5e353dp+3 0x0p+0 0x1.eb1872095bef2p-2 0x1.18d4c925ef8e7p+4 0x1.c1d16700fa5bap-2 0x1.1757d258b8541p+4 0x1.c163f20698549p+1 0x1.6c8cf4f4fd83dp+6 0x1.8a3eab8206b96p+3",
    "edge/2 MPC-HM consort 6 18 0 3 0 0 15 sums 0x1.ebac9f56844b1p+9 0x0p+0 0x1.bf03ff25c17a1p+2 0x1.fd3be98074658p+7 0x1.14df0145b6ec9p+3 0x1.7eebefddab28p+7 0x1.25c1173e7f1efp+6 0x1.9b5954100079cp+9 0x1.e7e6195636596p+9",
    "edge/2 BBA consort 6 24 2 11 0 1 11 sums 0x1.c22bca81c63e6p+9 0x0p+0 0x1.96b109ae13b45p+2 0x1.41145a35fe4afp+7 0x1.81bdca7e43351p+3 0x1.881627157f5eap+6 0x1.a0d95ea204311p+4 0x1.cfb0453241d69p+6 0x1.c6f4fb57d2dc5p+9",
    "edge/2 fairness 0x1.02c1395df7313p-1 0x1.113f4a874f3ap-1 0x1.d37ec67ea8d9fp-1 0x1.0c4d424f30707p-1 0x1.c22b3af9696fep-1 0x1.06beb4d922cfcp-1 0x1.94ecef2cf6e92p-1 0x1p+0",
    "edge/2 bytes 8 1163420502 1161361258 2059244",
    "edge/4 Fugu consort 3 7 3 2 0 0 2 sums 0x1.c16872b020c47p+3 0x0p+0 0x1.fd65a1d423407p-1 0x1.1736acd2d0152p+5 0x1.4c6628b705dd9p-1 0x1.1b617ef9ace53p+5 0x1.e39218203d0b2p+2 0x1.39b99ea2242bfp+7 0x1.1627f402f1861p+4",
    "edge/4 MPC-HM consort 6 18 0 3 0 0 15 sums 0x1.e7efa3a8b3e81p+9 0x0p+0 0x1.b814e457a9e36p+2 0x1.fd9c6ecbdedc5p+7 0x1.0e95195f12ba1p+3 0x1.81aa4fc412dacp+7 0x1.270afa085cf6p+6 0x1.df8004eb5a60fp+9 0x1.e4f904eaa0e97p+9",
    "edge/4 BBA consort 6 24 2 11 0 0 11 sums 0x1.7ebff0cb06e75p+9 0x0p+0 0x1.30632624fd645p+2 0x1.51ad48fd4879ap+7 0x1.5051456b7352ep+3 0x1.881627157f5eap+6 0x1.1f52afee7c94p+5 0x1.cca90113a0af7p+8 0x1.842188f96ff4ep+9",
    "edge/4 fairness 0x1.eef13457dad61p-2 0x1.1ef517b598153p-2 0x1.a9af4b1e96a61p-2 0x1.3521e80494c21p-1",
    "edge/4 bytes 4 1297454050 1267284665 30169385",
    "tower/2 Fugu consort 3 7 3 3 0 0 1 sums 0x1.20c49ba5e353ap+3 0x0p+0 0x1.f7e6ac865390ap-2 0x1.18f023fe762d5p+4 0x1.c1d16700fa5bap-2 0x1.1757d258b8541p+4 0x1.b835f23c04dcbp+1 0x1.327cfcac393bp+6 0x1.8e5cd2798743bp+3",
    "tower/2 MPC-HM consort 6 18 0 3 0 0 15 sums 0x1.ede2c67905c2dp+9 0x0p+0 0x1.c0f51f77a066ap+2 0x1.fc398f16e658ap+7 0x1.20e7dcc454f41p+3 0x1.6e213de2a810ep+7 0x1.211fb19aa0462p+6 0x1.50375e4a7b1e6p+9 0x1.ea1d052c63e5ep+9",
    "tower/2 BBA consort 6 24 2 11 0 1 11 sums 0x1.c62e3a115e7c5p+9 0x0p+0 0x1.b37f0f0b09179p+2 0x1.39454f76eba18p+7 0x1.888b57f400a05p+3 0x1.881627157f5eap+6 0x1.758251ee621c5p+4 0x1.6b038028aabe9p+6 0x1.cb0e6c98d41a8p+9",
    "tower/2 fairness 0x1.02c9d441f98ebp-1 0x1.0c623ed44805ap-1 0x1.d37ec67ea8d9bp-1 0x1.0c84f5bc61442p-1 0x1.b44c91832e2efp-1 0x1.0421074eb8126p-1 0x1.93928546f8eb1p-1 0x1p+0",
    "tower/2 bytes 8 1116556157 1108356785 8199372",
    "tower/4 Fugu consort 3 7 3 2 0 0 2 sums 0x1.c16872b020c45p+3 0x0p+0 0x1.0754a94e1d63p+0 0x1.1736acd2d0152p+5 0x1.4c6628b705dd9p-1 0x1.1b617ef9ace53p+5 0x1.e39218203d0b2p+2 0x1.fece80ca7851bp+6 0x1.192611283dc5p+4",
    "tower/4 MPC-HM consort 6 18 1 2 0 0 15 sums 0x1.e8296235b87e4p+9 0x0p+0 0x1.d15307054a1fap+2 0x1.fc87580e8e959p+7 0x1.19447c1a47756p+3 0x1.79433be8a96b6p+7 0x1.253373debb9d9p+6 0x1.9596bc7cefe25p+9 0x1.e56e323b1b6bep+9",
    "tower/4 BBA consort 6 24 2 11 0 0 11 sums 0x1.7f12474accffdp+9 0x0p+0 0x1.32463fb5610a2p+2 0x1.51ad48fd4879ap+7 0x1.5051456b7352ep+3 0x1.881627157f5eap+6 0x1.1f52afee7c94p+5 0x1.72b0bc0884d66p+8 0x1.8492c2da1ff22p+9",
    "tower/4 fairness 0x1.ec1ed0d5d728dp-2 0x1.1efdd865787b2p-2 0x1.6da54628da37bp-2 0x1.358e269f37bbdp-1",
    "tower/4 bytes 4 1261979574 1252352266 9627308",
    "wifi/2 Fugu consort 3 7 2 4 0 0 1 sums 0x1.20c49ba5e353bp+3 0x0p+0 0x1.e092a3eee76eap-2 0x1.18d4c925ef8e7p+4 0x1.c1d16700fa5bap-2 0x1.1757d258b8541p+4 0x1.c163f20698549p+1 0x1.a0f2847722d3ep+6 0x1.884edb9f345bdp+3",
    "wifi/2 MPC-HM consort 6 18 0 4 0 0 14 sums 0x1.e7b5f585076f8p+9 0x0p+0 0x1.9f0f8a02437b3p+2 0x1.dd66da0a22ea7p+7 0x1.dc9b578302b7ep+2 0x1.6bffe4495222p+7 0x1.0b3476e67c6e1p+6 0x1.b7d3b8e8758a5p+9 0x1.e5c1d3d19db3cp+9",
    "wifi/2 BBA consort 6 24 2 10 0 1 12 sums 0x1.c17184b0ac992p+9 0x0p+0 0x1.ac04432fed3f2p+2 0x1.5cbd8a7c9dfc6p+7 0x1.8ad001719adbfp+3 0x1.ad1533eafaf2fp+6 0x1.c8eeeea76c0bep+4 0x1.0ae6b57a2a77cp+7 0x1.c46898307e7b9p+9",
    "wifi/2 fairness 0x1.0512a10c03154p-1 0x1.12e58963683eep-1 0x1.d37ec67ea8da1p-1 0x1.0c4d424f30708p-1 0x1.b1e130a09e5ddp-1 0x1.08e7e3f6e9f3ep-1 0x1.94ecef2cf6e8fp-1 0x1p+0",
    "wifi/2 bytes 8 1202025356 1187899347 14126009",
    "wifi/4 Fugu consort 3 7 3 2 0 0 2 sums 0x1.c16872b020c45p+3 0x0p+0 0x1.f5321f97a2fd6p-1 0x1.1728ff668cc5cp+5 0x1.4c6628b705dd9p-1 0x1.1b617ef9ace53p+5 0x1.e829180586c7p+2 0x1.56655b442b44ap+7 0x1.14f32831edadap+4",
    "wifi/4 MPC-HM consort 6 18 0 3 0 0 15 sums 0x1.e7cd7c57137f4p+9 0x0p+0 0x1.b9c91ef4cd55p+2 0x1.fe4addd4e30edp+7 0x1.02c194ef73f78p+3 0x1.8ce6baae1c67p+7 0x1.2791a6485eab7p+6 0x1.0998330a94503p+10 0x1.e4d6affd73309p+9",
    "wifi/4 BBA consort 6 24 2 11 0 0 11 sums 0x1.7ea3386b3b36cp+9 0x0p+0 0x1.2eed2b06bd01bp+2 0x1.51ad48fd4879ap+7 0x1.5051456b7352ep+3 0x1.881627157f5eap+6 0x1.1f52afee7c94p+5 0x1.0403f5fafafadp+9 0x1.84c76ad932ee8p+9",
    "wifi/4 fairness 0x1.eee62111edb7cp-2 0x1.1eead992326f2p-2 0x1.a9af4b1e96a64p-2 0x1.35dab3cc9a368p-1",
    "wifi/4 bytes 4 1334851759 1268557898 66293861",
    // clang-format on
};

/// Nothing else pins shared-bottleneck results: the golden rows run the
/// contention families on private paths, and the shard/thread matrix only
/// compares runs with each other. This pins every zero-fault bit of the
/// three topologies at group sizes 2 and 4.
TEST(FleetTrial, ContentionBitsPinned) {
  std::vector<std::string> actual;
  for (const char* topology : {"edge", "tower", "wifi"}) {
    for (const int group_size : {2, 4}) {
      const exp::FleetTrialResult run = exp::run_fleet_trial(
          contention_config(topology, group_size), fleet_factory());
      std::string label = topology;
      label += '/';
      label += std::to_string(group_size);
      const std::vector<std::string> rows = contention_digest(label, run);
      actual.insert(actual.end(), rows.begin(), rows.end());
    }
  }
  if (actual != kContentionPinned) {
    for (const std::string& row : actual) {
      std::printf("    \"%s\",\n", row.c_str());
    }
  }
  ASSERT_EQ(actual.size(), kContentionPinned.size());
  for (size_t i = 0; i < actual.size(); i++) {
    EXPECT_EQ(actual[i], kContentionPinned[i]);
  }
}

/// Contention grouping is RCT-only: the paired-replay design would put the
/// same plan's per-scheme copies behind one bottleneck, which is neither the
/// paired contract nor a meaningful RCT.
TEST(FleetTrial, ContentionRejectsPairedMode) {
  exp::FleetTrialConfig config = contention_config("edge", 2);
  config.trial.paired_paths = true;
  EXPECT_THROW(static_cast<void>(exp::run_fleet_trial(config, fleet_factory())),
               RequirementError);
}

// Captured before StochasticMpc::plan computed step 1 on demand. Regenerate
// only for a documented behaviour change: on a mismatch the test prints the
// actual rows, ready to paste.
const std::vector<std::string> kFuguTrialPinned = {
    // clang-format off
    "puffer Fugu consort 12 52 9 6 0 1 37 sums 0x1.28cfdaf9beb89p+11 0x1.bdbe03c5ffe2dp+6 0x1.25ddfd078a598p+6 0x1.3d454a55578p+9 0x1.b5c540b6d8d75p+3 0x1.3ddd9e6638b61p+9 0x1.969ef9eb3aecfp+7 0x1.4b9a174229bbp+9 0x1.30c9b11f9ef48p+11",
    "puffer MPC-HM consort 8 20 2 2 0 0 16 sums 0x1.4cb93e88b3eabp+10 0x1.c1dc6e4c42c4cp+2 0x1.136f050e07169p+3 0x1.04dd6aa8ec4d4p+8 0x1.a23bb9ae8ce12p+3 0x1.50329539585f5p+7 0x1.e809da4b032f2p+5 0x1.5629d384204b6p+8 0x1.4a93559c3146cp+10",
    // clang-format on
};

/// The golden rows pin BBA and MPC-HM trials, and fleet_factory's Fugu runs
/// an untrained network. This pins a Fugu arm whose TTP was trained in situ
/// (tiny: one day, one epoch), so the planner sees TTP-shaped distributions
/// inside a real trial.
TEST(FleetTrial, FuguTrialBitsPinned) {
  fugu::TtpTrainConfig train_config;
  train_config.epochs = 1;
  train_config.max_examples_per_step = 3000;
  const auto model = std::make_shared<const fugu::TtpModel>(
      exp::train_ttp_on_scenario(net::ScenarioSpec{"puffer"},
                                 fugu::TtpConfig{}, train_config, /*days=*/1,
                                 /*sessions_per_day=*/16, /*seed=*/77));
  const exp::SchemeFactory factory =
      [model](const std::string& name) -> std::unique_ptr<abr::AbrAlgorithm> {
    if (name == "Fugu") {
      return fugu::make_fugu(model, name);
    }
    return exp::make_scheme(name, exp::SchemeArtifacts{});
  };
  exp::FleetTrialConfig config = fleet_config();
  config.trial.schemes = {"Fugu", "MPC-HM"};
  config.trial.sessions_per_scheme = 10;
  config.trial.scenario = net::ScenarioSpec{"puffer"};
  config.trial.seed = 771;
  const std::vector<std::string> actual =
      scheme_digest("puffer", exp::run_fleet_trial(config, factory).trial);
  if (actual != kFuguTrialPinned) {
    for (const std::string& row : actual) {
      std::printf("    \"%s\",\n", row.c_str());
    }
  }
  ASSERT_EQ(actual.size(), kFuguTrialPinned.size());
  for (size_t i = 0; i < actual.size(); i++) {
    EXPECT_EQ(actual[i], kFuguTrialPinned[i]);
  }
}

// ---------------------------------------------------------------------------
// Observability: sim-plane metric snapshots and virtual-time traces
// ---------------------------------------------------------------------------

/// The sim-plane metric snapshot is part of the bitwise determinism
/// surface. At a fixed shard count the full snapshot — shard-local metrics
/// included, since the partition itself is fixed — must be identical at
/// any worker-thread count (1/2/4), per-shard snapshots too. Across shard
/// counts (1/2/4/8) the partition-invariant view still matches bit for
/// bit.
TEST(FleetTrial, MetricSnapshotsBitIdenticalAcrossShardAndThreadMatrix) {
  exp::FleetTrialConfig config = fleet_config();

  obs::MetricSnapshot invariant_baseline;
  for (const int shards : {1, 2, 4, 8}) {
    config.num_shards = shards;
    config.trial.num_threads = 1;
    const exp::FleetTrialResult baseline =
        exp::run_fleet_trial(config, fleet_factory());
    ASSERT_EQ(baseline.fleet.shard_metrics.size(),
              static_cast<size_t>(shards));
    // Spot-check that the snapshot actually carries the engine and trial
    // planes before comparing: an empty-vs-empty EQ would prove nothing.
    ASSERT_NE(baseline.metrics.find("fleet.decisions"), nullptr);
    ASSERT_NE(baseline.metrics.find("trial.plan_cache_misses"), nullptr);
    if (shards == 1) {
      invariant_baseline = baseline.metrics.deterministic_view(false);
      ASSERT_FALSE(invariant_baseline.metrics.empty());
    } else {
      EXPECT_EQ(baseline.metrics.deterministic_view(false),
                invariant_baseline);
    }
    for (const int threads : {2, 4}) {
      config.trial.num_threads = threads;
      const exp::FleetTrialResult run =
          exp::run_fleet_trial(config, fleet_factory());
      EXPECT_EQ(run.metrics.deterministic_view(true),
                baseline.metrics.deterministic_view(true));
      EXPECT_EQ(run.fleet.shard_metrics, baseline.fleet.shard_metrics);
    }
  }
}

/// The engine renders virtual-time trace events into per-shard buffers and
/// splices them in ascending shard order after the join, so the trace JSON
/// is byte-identical across repeat runs and across worker-thread counts.
TEST(FleetTrial, VirtualTimeTraceByteIdenticalAcrossRepeatRuns) {
  const auto traced_run = [](const int threads) {
    exp::FleetTrialConfig config = fleet_config();
    config.num_shards = 4;
    config.trial.num_threads = threads;
    obs::TraceWriter trace;
    config.trace = &trace;
    static_cast<void>(exp::run_fleet_trial(config, fleet_factory()));
    return trace.str();
  };
  const std::string first = traced_run(1);
  EXPECT_GT(first.size(), 1000u);
  EXPECT_EQ(first, traced_run(1));
  EXPECT_EQ(first, traced_run(4));
}

TEST(FleetTrial, EmptyTrialIsFine) {
  exp::FleetTrialConfig config = fleet_config();
  config.trial.sessions_per_scheme = 0;
  const exp::FleetTrialResult result =
      exp::run_fleet_trial(config, fleet_factory());
  EXPECT_EQ(result.fleet.sessions, 0);
  EXPECT_EQ(result.fleet.decisions, 0);
  for (const auto& scheme : result.trial.schemes) {
    EXPECT_EQ(scheme.consort.sessions, 0);
  }
}

}  // namespace
}  // namespace puffer
