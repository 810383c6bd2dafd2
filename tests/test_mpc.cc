#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <functional>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "abr/mpc.hh"
#include "abr/mpc_abr.hh"
#include "abr/throughput_predictors.hh"
#include "fugu/ttp.hh"
#include "test_helpers.hh"
#include "util/require.hh"
#include "util/rng.hh"

namespace puffer::abr {
namespace {

using test::make_lookahead;
using test::record_at_throughput;

/// Predictor whose behaviour is fully scripted by the test.
class ScriptedPredictor final : public TxTimePredictor {
 public:
  explicit ScriptedPredictor(
      std::function<TxTimeDistribution(int, int64_t)> fn)
      : fn_(std::move(fn)) {}

  void begin_decision(const AbrObservation&) override {}
  TxTimeDistribution predict(const int step, const int64_t size) override {
    return fn_(step, size);
  }
  void on_chunk_complete(const ChunkRecord&) override {}
  void reset_session() override {}

 private:
  std::function<TxTimeDistribution(int, int64_t)> fn_;
};

ScriptedPredictor constant_throughput(const double bps) {
  return ScriptedPredictor{[bps](int, const int64_t size) {
    return TxTimeDistribution{
        {static_cast<double>(size) / bps, 1.0}};
  }};
}

TEST(Mpc, FastNetworkFullBufferPicksTopRung) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(100e6 / 8.0);  // 100 Mbps
  AbrObservation obs;
  obs.buffer_s = 14.0;
  obs.prev_ssim_db = 17.0;
  const auto lookahead = make_lookahead(5);
  EXPECT_EQ(mpc.plan(obs, lookahead, predictor), media::kNumRungs - 1);
}

TEST(Mpc, SlowNetworkEmptyBufferPicksBottomRung) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(0.3e6 / 8.0);  // 0.3 Mbps
  AbrObservation obs;
  obs.buffer_s = 0.0;
  obs.prev_ssim_db = -1.0;
  const auto lookahead = make_lookahead(5);
  EXPECT_EQ(mpc.plan(obs, lookahead, predictor), 0);
}

TEST(Mpc, ChoiceMonotoneInThroughput) {
  StochasticMpc mpc;
  AbrObservation obs;
  obs.buffer_s = 8.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(5);
  int prev_choice = 0;
  for (const double mbps : {0.3, 1.0, 2.0, 4.0, 8.0, 20.0, 60.0}) {
    ScriptedPredictor predictor = constant_throughput(mbps * 1e6 / 8.0);
    const int choice = mpc.plan(obs, lookahead, predictor);
    EXPECT_GE(choice, prev_choice) << "at " << mbps << " Mbps";
    prev_choice = choice;
  }
  EXPECT_EQ(prev_choice, media::kNumRungs - 1);
}

TEST(Mpc, StallPenaltyDominatesNearEmptyBuffer) {
  // At ~2 Mbit/s with 0.5 s of buffer, sending a top-rung (5.5 Mbit/s) chunk
  // stalls for seconds; MPC must not pick it even though its quality is best.
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(2e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 0.5;
  obs.prev_ssim_db = 16.0;
  const auto lookahead = make_lookahead(5);
  const int choice = mpc.plan(obs, lookahead, predictor);
  EXPECT_LE(choice, 2);
}

TEST(Mpc, QualityVariationPenaltySmoothsSwitches) {
  // Previous chunk was low quality; with a huge lambda the controller must
  // not jump straight to the top even on a fast network.
  MpcConfig smooth_config;
  smooth_config.lambda = 50.0;
  StochasticMpc smooth{smooth_config};
  StochasticMpc plain;  // lambda = 1

  ScriptedPredictor predictor = constant_throughput(100e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 10.0;
  obs.prev_ssim_db = 9.0;  // bottom-rung quality
  const auto lookahead = make_lookahead(5);
  const int smooth_choice = smooth.plan(obs, lookahead, predictor);
  const int plain_choice = plain.plan(obs, lookahead, predictor);
  EXPECT_LT(smooth_choice, plain_choice);
}

TEST(Mpc, FirstChunkHasNoVariationPenalty) {
  MpcConfig config;
  config.lambda = 1000.0;  // would crush any switch if prev existed
  StochasticMpc mpc{config};
  ScriptedPredictor predictor = constant_throughput(100e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 14.0;
  obs.prev_ssim_db = -1.0;  // no previous chunk
  const auto lookahead = make_lookahead(1);
  EXPECT_EQ(mpc.plan(obs, lookahead, predictor), media::kNumRungs - 1);
}

/// Exhaustive open-loop enumeration. For deterministic (point-mass)
/// predictors, the closed-loop DP optimum and the open-loop optimum agree,
/// so this is an independent oracle for the value iteration.
double brute_force_value(const std::vector<media::ChunkOptions>& lookahead,
                         const int h, const int horizon, const double buffer,
                         const double prev_ssim,
                         const std::function<double(int, int64_t)>& tx_time,
                         const MpcConfig& config, int* best_action) {
  if (h == horizon) {
    return 0.0;
  }
  double best = -1e18;
  for (int a = 0; a < media::kNumRungs; a++) {
    const auto& v = lookahead[static_cast<size_t>(h)].version(a);
    const double t = tx_time(h, v.size_bytes);
    double qoe = v.ssim_db;
    if (prev_ssim >= 0.0) {
      qoe -= config.lambda * std::abs(v.ssim_db - prev_ssim);
    }
    qoe -= config.mu * std::max(t - buffer, 0.0);
    const double next_buffer = std::min(
        std::max(buffer - t, 0.0) + config.chunk_duration_s,
        config.max_buffer_s);
    const double value =
        qoe + brute_force_value(lookahead, h + 1, horizon, next_buffer,
                                v.ssim_db, tx_time, config, nullptr);
    if (value > best) {
      best = value;
      if (best_action != nullptr) {
        *best_action = a;
      }
    }
  }
  return best;
}

/// Parameterized sweep: value iteration must match brute force across
/// throughputs and buffer levels (with fine buffer bins to make the
/// discretization error negligible).
class MpcVsBruteForce
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(MpcVsBruteForce, MatchesExhaustiveSearch) {
  const auto& [mbps, buffer] = GetParam();
  MpcConfig config;
  config.horizon = 3;
  config.buffer_bin_s = 0.02;
  StochasticMpc mpc{config};

  const double bps = mbps * 1e6 / 8.0;
  auto tx_time = [bps](int, const int64_t size) {
    return std::clamp(static_cast<double>(size) / bps, 1e-3, 60.0);
  };
  ScriptedPredictor predictor{[&tx_time](const int step, const int64_t size) {
    return TxTimeDistribution{{tx_time(step, size), 1.0}};
  }};

  AbrObservation obs;
  obs.buffer_s = buffer;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(3);

  const int mpc_choice = mpc.plan(obs, lookahead, predictor);
  int brute_choice = -1;
  const double brute_value =
      brute_force_value(lookahead, 0, 3, buffer, 14.0, tx_time, config,
                        &brute_choice);

  // The chosen actions' true values must agree closely (ties in value can
  // legitimately flip the argmax, so compare values, not indices).
  int scratch = -1;
  (void)scratch;
  // Compute the true value of MPC's chosen first action under brute force.
  const auto& v = lookahead[0].version(mpc_choice);
  const double t = tx_time(0, v.size_bytes);
  double qoe = v.ssim_db - config.lambda * std::abs(v.ssim_db - 14.0) -
               config.mu * std::max(t - buffer, 0.0);
  const double next_buffer =
      std::min(std::max(buffer - t, 0.0) + config.chunk_duration_s,
               config.max_buffer_s);
  const double mpc_choice_value =
      qoe + brute_force_value(lookahead, 1, 3, next_buffer, v.ssim_db, tx_time,
                              config, nullptr);
  EXPECT_NEAR(mpc_choice_value, brute_value, 0.35)
      << "mpc picked " << mpc_choice << ", brute force " << brute_choice;
  EXPECT_NEAR(mpc.last_plan_value(), brute_value, 0.35);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, MpcVsBruteForce,
    ::testing::Combine(::testing::Values(0.5, 1.5, 4.0, 12.0, 50.0),
                       ::testing::Values(0.0, 2.0, 7.0, 14.0)));

/// The heart of Fugu's "prediction with uncertainty" advantage (section 4.6):
/// when the transmission time is bimodal (usually fast, occasionally awful),
/// a point-estimate controller gambles while the stochastic controller hedges.
TEST(Mpc, StochasticHedgesAgainstBimodalRisk) {
  MpcConfig config;
  config.horizon = 1;
  config.lambda = 0.0;  // isolate the stall-risk tradeoff
  StochasticMpc mpc{config};

  // Menu with two rungs that matter: rung 9 (big, great quality) and the
  // rest. Big chunk: 85% fast (0.3 s), 15% disastrous (11 s). Small chunks:
  // always fast.
  auto risky = [](const int /*step*/, const int64_t size) {
    if (size > 1'000'000) {
      return TxTimeDistribution{{0.3, 0.85}, {11.0, 0.15}};
    }
    return TxTimeDistribution{{0.1, 1.0}};
  };
  ScriptedPredictor stochastic_predictor{risky};
  // Point-estimate version: collapse to the most likely outcome.
  ScriptedPredictor point_predictor{[&risky](const int step, const int64_t size) {
    TxTimeDistribution dist = risky(step, size);
    TxTimeOutcome best = dist[0];
    for (const auto& outcome : dist) {
      if (outcome.probability > best.probability) {
        best = outcome;
      }
    }
    return TxTimeDistribution{{best.time_s, 1.0}};
  }};

  AbrObservation obs;
  obs.buffer_s = 3.0;
  obs.prev_ssim_db = 16.0;
  const auto lookahead = make_lookahead(1);

  const int stochastic_choice = mpc.plan(obs, lookahead, stochastic_predictor);
  const int point_choice = mpc.plan(obs, lookahead, point_predictor);

  // Point estimate sees "0.3 s, safe" and takes the top rung; the stochastic
  // controller prices in the 15% * mu * 8 s stall and refuses.
  EXPECT_EQ(point_choice, media::kNumRungs - 1);
  EXPECT_LT(stochastic_choice, media::kNumRungs - 1);

  // And the stochastic choice has higher true expected QoE.
  auto expected_qoe = [&](const int rung) {
    const auto& v = lookahead[0].version(rung);
    double total = 0.0;
    for (const auto& outcome : risky(0, v.size_bytes)) {
      total += outcome.probability *
               (v.ssim_db - 100.0 * std::max(outcome.time_s - 3.0, 0.0));
    }
    return total;
  };
  EXPECT_GT(expected_qoe(stochastic_choice), expected_qoe(point_choice));
}

TEST(Mpc, PrunesNegligibleOutcomesWithoutChangingDecision) {
  MpcConfig tight;
  tight.prune_probability = 1e-3;
  tight.lambda = 0.0;  // distinct per-rung QoE values avoid argmax ties
  MpcConfig none = tight;
  none.prune_probability = 0.0;
  StochasticMpc pruned{tight}, full{none};

  auto noisy = [](const int, const int64_t size) {
    // Two dominant outcomes plus sub-threshold jitter outcomes whose times
    // are close to the dominant ones — genuinely negligible mass AND value.
    TxTimeDistribution dist;
    const double base = static_cast<double>(size) / (2e6 / 8.0);
    dist.push_back({base, 0.60});
    dist.push_back({base * 1.5, 0.3996});
    for (int i = 0; i < 8; i++) {
      dist.push_back({base * (1.0 + 0.05 * i), 0.0004 / 8});
    }
    return dist;
  };
  ScriptedPredictor p1{noisy}, p2{noisy};

  AbrObservation obs;
  obs.buffer_s = 6.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(5);
  const int pruned_choice = pruned.plan(obs, lookahead, p1);
  const int full_choice = full.plan(obs, lookahead, p2);
  EXPECT_EQ(pruned_choice, full_choice);
  EXPECT_NEAR(pruned.last_plan_value(), full.last_plan_value(), 0.2);
}

/// The iterative backward sweep must agree with the retained recursive
/// reference implementation on randomized lookaheads, horizons, buffers and
/// multi-outcome distributions. The two differ only by floating-point
/// reassociation of the expectation sum, so values match to ~1e-6 and the
/// argmax may flip only on a floating tie.
TEST(Mpc, IterativeSweepMatchesRecursiveReference) {
  Rng meta{909};
  for (int trial = 0; trial < 60; trial++) {
    MpcConfig config;
    config.horizon = 1 + static_cast<int>(meta.uniform_int(0, 4));
    config.lambda = meta.uniform(0.0, 2.0);
    const uint64_t dist_seed = meta.engine()();
    const int max_outcomes = 1 + trial % 5;
    // Pure function of (step, size): both plans see identical distributions.
    ScriptedPredictor predictor{
        [dist_seed, max_outcomes](const int step, const int64_t size) {
          Rng rng{dist_seed ^ (static_cast<uint64_t>(step) << 48) ^
                  static_cast<uint64_t>(size)};
          const int n =
              1 + static_cast<int>(rng.uniform_int(0, max_outcomes - 1));
          TxTimeDistribution dist;
          double mass = 0.0;
          for (int i = 0; i < n; i++) {
            dist.push_back({rng.uniform(0.05, 8.0), rng.uniform(0.05, 1.0)});
            mass += dist.back().probability;
          }
          for (auto& outcome : dist) {
            outcome.probability /= mass;
          }
          return dist;
        }};

    AbrObservation obs;
    obs.buffer_s = meta.uniform(0.0, 15.0);
    obs.prev_ssim_db = trial % 3 == 0 ? -1.0 : meta.uniform(9.0, 17.0);
    // Lookaheads both shorter and longer than the horizon.
    const auto lookahead =
        make_lookahead(std::max(1, config.horizon - trial % 2));

    StochasticMpc mpc{config};
    const int iterative = mpc.plan(obs, lookahead, predictor);
    const double iterative_value = mpc.last_plan_value();
    const std::vector<double> iterative_roots{mpc.last_root_values().begin(),
                                              mpc.last_root_values().end()};

    const int reference = mpc.plan_reference(obs, lookahead, predictor);
    const double reference_value = mpc.last_plan_value();
    const std::span<const double> reference_roots = mpc.last_root_values();

    const double tol = 1e-6 * std::max(1.0, std::abs(reference_value));
    EXPECT_NEAR(iterative_value, reference_value, tol) << "trial " << trial;
    ASSERT_EQ(iterative_roots.size(), reference_roots.size());
    for (size_t a = 0; a < iterative_roots.size(); a++) {
      EXPECT_NEAR(iterative_roots[a], reference_roots[a], tol)
          << "trial " << trial << " action " << a;
    }
    if (iterative != reference) {
      EXPECT_NEAR(reference_roots[static_cast<size_t>(iterative)],
                  reference_roots[static_cast<size_t>(reference)], tol)
          << "trial " << trial << ": argmax flip without a value tie";
    }
  }
}

/// chunk_qoe treats a negative previous SSIM as "no previous quality" and
/// skips the variation term; the sweep's hoisted switch-penalty table must
/// honor the same rule for interior steps.
TEST(Mpc, IterativeMatchesReferenceWithNegativeSsimVersions) {
  MpcConfig config;
  config.lambda = 25.0;  // make any variation-term mismatch decisive
  StochasticMpc mpc{config};
  ScriptedPredictor predictor{[](const int, const int64_t size) {
    return TxTimeDistribution{{static_cast<double>(size) / (3e6 / 8.0), 0.8},
                              {static_cast<double>(size) / (0.8e6 / 8.0), 0.2}};
  }};
  auto lookahead = make_lookahead(5);
  for (auto& options : lookahead) {
    options.versions[0].ssim_db = -1.0;  // e.g. an unavailable encoding
    options.versions[1].ssim_db = -0.5;
  }
  AbrObservation obs;
  obs.buffer_s = 5.0;
  obs.prev_ssim_db = 14.0;
  const int iterative = mpc.plan(obs, lookahead, predictor);
  const double iterative_value = mpc.last_plan_value();
  const int reference = mpc.plan_reference(obs, lookahead, predictor);
  EXPECT_EQ(iterative, reference);
  EXPECT_NEAR(iterative_value, mpc.last_plan_value(),
              1e-6 * std::max(1.0, std::abs(mpc.last_plan_value())));
}

TEST(Mpc, IterativePlanDeterministicAcrossRepeatedRuns) {
  StochasticMpc mpc;
  ScriptedPredictor predictor{[](const int, const int64_t size) {
    return TxTimeDistribution{
        {static_cast<double>(size) / (4e6 / 8.0), 0.7},
        {static_cast<double>(size) / (1e6 / 8.0), 0.3}};
  }};
  AbrObservation obs;
  obs.buffer_s = 6.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(5);
  const int first = mpc.plan(obs, lookahead, predictor);
  const double first_value = mpc.last_plan_value();
  for (int repeat = 0; repeat < 3; repeat++) {
    EXPECT_EQ(mpc.plan(obs, lookahead, predictor), first);
    EXPECT_EQ(mpc.last_plan_value(), first_value);  // bitwise
  }
}

/// Seeded lattice families for the bitwise pins below. Each predictor is a
/// pure function of (step, size), so every plan of a lattice sees the same
/// distributions.
enum class PinFamily {
  kPointMass,  // one outcome per query, HM-like
  kTtpBins,    // weights over Fugu's 21 TTP bin midpoints, TTP-like
  kBinEdges,   // outcomes exactly on buffer-bin edges (t = k * bin)
  kAboveMax,   // outcomes at and beyond max_buffer_s
};

TxTimeDistribution pinned_distribution(const PinFamily family,
                                       const uint64_t seed, const int step,
                                       const int64_t size) {
  Rng rng{seed ^ (static_cast<uint64_t>(step) << 48) ^
          static_cast<uint64_t>(size)};
  const double bps = Rng{seed}.uniform(0.3e6, 20e6) / 8.0;
  const double t0 = static_cast<double>(size) / bps;
  TxTimeDistribution dist;
  switch (family) {
    case PinFamily::kPointMass:
      dist.push_back({t0 * rng.uniform(0.8, 1.25), 1.0});
      break;
    case PinFamily::kTtpBins:
      for (int bin = 0; bin < fugu::kTtpBins; bin++) {
        const double mid = fugu::ttp_bin_midpoint(bin);
        const double z = (mid - t0) / (0.3 + 0.5 * t0);
        // The tail weights fall below prune_probability on most queries.
        dist.push_back({mid, std::exp(-0.5 * z * z) + 1e-6 * rng.uniform()});
      }
      break;
    case PinFamily::kBinEdges: {
      const int n = 1 + static_cast<int>(rng.uniform_int(0, 2));
      for (int i = 0; i < n; i++) {
        dist.push_back({0.25 * static_cast<double>(rng.uniform_int(0, 60)),
                        rng.uniform(0.1, 1.0)});
      }
      break;
    }
    case PinFamily::kAboveMax:
      dist.push_back({std::min(t0, 15.0), rng.uniform(0.2, 1.0)});
      dist.push_back({15.0, rng.uniform(0.05, 0.3)});
      dist.push_back({15.25, rng.uniform(0.05, 0.3)});
      dist.push_back({rng.uniform(15.0, 40.0), rng.uniform(0.05, 0.3)});
      break;
  }
  double mass = 0.0;
  for (const auto& outcome : dist) {
    mass += outcome.probability;
  }
  for (auto& outcome : dist) {
    outcome.probability /= mass;
  }
  return dist;
}

struct PlanPin {
  PinFamily family;
  uint64_t seed;
  double buffer_s;
  double prev_ssim_db;
  std::array<double, media::kNumRungs> root_values;
  double plan_value;
  // Planner shape; the defaults are the paper's configuration.
  int lookahead = 5;
  int horizon = 5;
  double buffer_bin_s = 0.25;
  double chunk_duration_s = 2.002;
};

/// Bitwise pins of plan() on seeded lattices. plan_reference() agrees with
/// plan() only up to reassociation, and the golden trials pin BBA/MPC-HM
/// only, so these literals are what catches a bit drift of the sweep on
/// TTP-shaped distributions. The later cases vary the planner's shape:
/// lookaheads shorter than the horizon, the ablation's horizons and bin
/// widths, 2.125 s chunks (next buffers on half-bin ties) and observed
/// buffers of 0 and at or above max_buffer_s. Regenerate them only for a
/// deliberate change of the planner's arithmetic, never for a speedup.
TEST(Mpc, PlanBitsPinnedOnSeededLattices) {
  const std::vector<PlanPin> pins = {
      {PinFamily::kPointMass, 11, 3.7, 14.0,
       {0x1.eb539a47275cep+5, 0x1.076e2920c4f6ep+6, 0x1.179d498ec217ep+6,
        0x1.226832d48e447p+6, 0x1.2cfb42f0ffcb9p+6, 0x1.2ba3c587a1a7p+6,
        0x1.29140f06fb996p+6, 0x1.243cf9e2d9ceap+6, 0x1.1fa0b21211aa3p+6,
        0x1.2a98707c9c66cp+3},
       0x1.2cfb42f0ffcb9p+6},
      {PinFamily::kPointMass, 12, 0.0, -1.0,
       {0x1.05f7a608f5e69p+6, 0x1.07deead3874ccp+6, 0x1.01e2bdc3320a7p+6,
        0x1.f908dbb1ad668p+5, 0x1.ad85ee65b3d9dp+5, 0x1.37e6b400d9abbp+5,
        0x1.5a2b3e49962efp+5, 0x1.dcfd2aa5000ap+4, 0x1.36a2713a0d3bp+4,
        -0x1.0805fcd95fcp+3},
       0x1.07deead3874ccp+6},
      {PinFamily::kTtpBins, 21, 6.3, 14.0,
       {0x1.005b3b172d026p+6, 0x1.1466f5b7da08p+6, 0x1.24961625d729p+6,
        0x1.31a85e0f1f12cp+6, 0x1.3c3b6e2b9099ep+6, 0x1.3fbb05e6544p+6,
        0x1.424abc66fa4d9p+6, 0x1.44921b0a760adp+6, 0x1.469eac5a9820ep+6,
        0x1.4822950653ce1p+6},
       0x1.4822950653ce1p+6},
      {PinFamily::kTtpBins, 22, 1.1, 12.0,
       {0x1.026b1c842670bp+6, 0x1.163bd1a53c189p+6, 0x1.259a946b8b2e3p+6,
        0x1.28816fd1da4a7p+6, 0x1.278ea7e24eb93p+6, 0x1.1cae7bb90ebabp+6,
        0x1.066f16e8cad67p+6, 0x1.bc7a95a5cffa2p+5, 0x1.488ef68e0fceep+5,
        0x1.a57ac5cfa1bbep+4},
       0x1.28816fd1da4a7p+6},
      {PinFamily::kTtpBins, 23, 14.9, 16.5,
       {0x1.ecb6762e5a04ep+5, 0x1.0a66f5b7da08p+6, 0x1.1a961625d729p+6,
        0x1.27a85e0f1f12cp+6, 0x1.327e6af934135p+6, 0x1.3cfd32297f06p+6,
        0x1.44ac55ab712ebp+6, 0x1.4b827195e4666p+6, 0x1.509eac5a9821ap+6,
        0x1.5222950653d18p+6},
       0x1.5222950653d18p+6},
      {PinFamily::kBinEdges, 31, 5.0, 14.0,
       {-0x1.97276c994dbc5p+9, -0x1.b80d958d8459p+9, -0x1.014bb3baa409ep+9,
        -0x1.176d670da225dp+10, -0x1.588411c234e27p+9, -0x1.6187658c34d4dp+9,
        -0x1.7b32880f1bda7p+8, -0x1.0852d91c5a985p+9, -0x1.ede3958518452p+8,
        -0x1.fc256b045d982p+9},
       -0x1.7b32880f1bda7p+8},
      {PinFamily::kBinEdges, 32, 0.25, -1.0,
       {-0x1.3deaa84e6b313p+10, -0x1.1b667b2bd96bep+10, -0x1.6781f2184f6e6p+9,
        -0x1.49d16a61c988cp+10, -0x1.fbf397b64f01ep+9, -0x1.e86906c012f0ap+8,
        -0x1.1d06d5085a332p+10, -0x1.4e9a41b004bc3p+10, -0x1.4fe954e6021f8p+10,
        -0x1.039a41b004bc2p+10},
       -0x1.e86906c012f0ap+8},
      {PinFamily::kAboveMax, 41, 15.0, 16.0,
       {-0x1.6700a51a25366p+10, -0x1.5b80c8c43da41p+10, -0x1.78ab065a372cep+10,
        -0x1.d2436a12476abp+10, -0x1.9db5269ae9558p+10, -0x1.a9f7b97a2adaap+10,
        -0x1.54edcba4726c2p+10, -0x1.b41604389ae22p+10, -0x1.8b6da9745b9efp+10,
        -0x1.55e905d0e6404p+10},
       -0x1.54edcba4726c2p+10},
      {PinFamily::kAboveMax, 42, 2.5, 11.0,
       {-0x1.47ff778a09cc3p+11, -0x1.4aae14f4c2091p+11, -0x1.15810a9bcd81cp+11,
        -0x1.572314b1c8112p+11, -0x1.4fadee5ff4fffp+11, -0x1.380b1173f13b4p+11,
        -0x1.3ccf1e8c3258ep+11, -0x1.4fcbc45d0c555p+11, -0x1.575384c49be27p+11,
        -0x1.7290a26946a0fp+11},
       -0x1.15810a9bcd81cp+11},
      // Lookaheads shorter than the horizon (live edge, end of stream).
      {PinFamily::kTtpBins, 51, 4.0, 13.0,
       {0x1.42b878c496e2cp+2, 0x1.0c45751090e4cp+3, 0x1.62962205d6eap+3,
        0x1.9ffffffffffffp+3, 0x1.9ffffffffffffp+3, 0x1.a000000000002p+3,
        0x1.9ffffffffffffp+3, 0x1.ap+3, 0x1.9fb8c2d31f375p+3,
        0x1.9d660063da9bap+3},
       0x1.a000000000002p+3, 1},
      {PinFamily::kPointMass, 52, 7.5, 14.0,
       {0x1.a20a5a93712a1p+3, 0x1.213417cc6cab9p+4, 0x1.61f09984612f8p+4,
        0x1.9639b92980d66p+4, 0x1.c085f99b46f2ep+4, 0x1.ce845886558bcp+4,
        0x1.d8c33288edc24p+4, 0x1.e1e0ad16dcb6ep+4, 0x1.ea12f2576512p+4,
        0x1.f022950653d18p+4},
       0x1.f022950653d18p+4, 2},
      {PinFamily::kTtpBins, 53, 2.2, 15.0,
       {0x1.d0ba41f3990ddp+4, 0x1.106baf0ab6c72p+5, 0x1.30b89a09bbdbep+5,
        0x1.4abd1ff18ebacp+5, 0x1.6030df59dc7bep+5, 0x1.74b2c3f61375cp+5,
        0x1.7a364fd3e21dfp+5, 0x1.7b2cd08743121p+5, 0x1.7345139ce1805p+5,
        0x1.6015d7c4fbaep+5},
       0x1.7b2cd08743121p+5, 3},
      // bench/tab_mpc_ablation's horizons and bin widths.
      {PinFamily::kPointMass, 61, 5.5, 14.0,
       {0x1.02b878c496e2cp+2, 0x1.d88aea2121c98p+2, 0x1.42962205d6eap+3,
        0x1.884cf6e2011dep+3, 0x1.cp+3, 0x1.cp+3,
        0x1.cp+3, -0x1.0d11a4bb15a2fp+6, -0x1.794ab08760b05p+7,
        -0x1.225deca1b8d3cp+8},
       0x1.cp+3, 5, 1},
      {PinFamily::kTtpBins, 62, 3.3, 12.5,
       {0x1.f927c2500c668p+4, 0x1.24ab5669603e8p+5, 0x1.450997455a808p+5,
        0x1.551ae95f6a0c8p+5, 0x1.5c544750cd623p+5, 0x1.635376c654aebp+5,
        0x1.6872e3c7a0c9ep+5, 0x1.6d01a10e98444p+5, 0x1.711ac3ab17d33p+5,
        0x1.742294f80a7e7p+5},
       0x1.742294f80a7e7p+5, 5, 3},
      {PinFamily::kTtpBins, 63, 8.1, 14.0,
       {0x1.cc752adbebdf9p+6, 0x1.e080e57c98e54p+6, 0x1.f0b005ea96063p+6,
        0x1.fdc24dd3ddfp+6, 0x1.042aaef827bb7p+7, 0x1.05ea7ad5898eap+7,
        0x1.07325615dc958p+7, 0x1.085605679a73fp+7, 0x1.095c4e0fab7f6p+7,
        0x1.0a1e426589576p+7},
       0x1.0a1e426589576p+7, 8, 8},
      {PinFamily::kPointMass, 64, 1.9, -1.0,
       {0x1.e05f6715c7286p+6, 0x1.edbc8e2b8fd6ep+6, 0x1.f886a3ca38978p+6,
        0x1.009ebf32deefp+7, 0x1.043b6e2b9099ep+7, 0x1.07bb05e654401p+7,
        0x1.0a4abc66fa4dbp+7, 0x1.0c921b0a760aep+7, 0x1.0e9eac5a9821ap+7,
        0x1.1022950653d18p+7},
       0x1.1022950653d18p+7, 8, 8},
      {PinFamily::kTtpBins, 65, 6.05, 14.0,
       {0x1.c6b6554d3e34ap+5, 0x1.eddf16ad441fep+5, 0x1.065139a0399b7p+6,
        0x1.124dc6b1e7ef7p+6, 0x1.1b6e5d5b20812p+6, 0x1.17e7f02836a0dp+6,
        0x1.077690bcd9c7ep+6, 0x1.a63f9a5b41b95p+5, 0x1.ae8bdb36c4655p+4,
        0x1.47dba21df7da4p+0},
       0x1.1b6e5d5b20812p+6, 5, 5, 0.1},
      {PinFamily::kPointMass, 66, 0.35, 13.0,
       {0x1.045b3b172d026p+6, 0x1.1866f5b7da08p+6, 0x1.28961625d729p+6,
        0x1.349ebf32deefp+6, 0x1.383b6e2b9099ep+6, 0x1.2e48e9a18cc93p+6,
        0x1.d5cdb8094ba3p+5, 0x1.de2b13a23d4dep+5, 0x1.e43f8f1bf296ep+4,
        0x1.bb6a5a034f298p+3},
       0x1.383b6e2b9099ep+6, 5, 5, 0.1},
      {PinFamily::kTtpBins, 67, 9.5, 14.0,
       {0x1.005b3b172d025p+6, 0x1.1466f5b7da074p+6, 0x1.24961625d7239p+6,
        0x1.31a85e0f1ef27p+6, 0x1.3c3b6e2b90121p+6, 0x1.3fbb05e6514dap+6,
        0x1.424abc66ecebap+6, 0x1.44921b0a2bf45p+6, 0x1.469eac592eep+6,
        0x1.482294ffb6e25p+6},
       0x1.482294ffb6e25p+6, 5, 5, 1.0},
      {PinFamily::kBinEdges, 68, 3.0, 14.0,
       {-0x1.d8fd07df99047p+8, -0x1.0919ffc4cd1c6p+9, -0x1.be614cc36b8fp+8,
        -0x1.ce0667dac7154p+9, -0x1.ebb550ff6edd6p+8, -0x1.d6c25b8798116p+8,
        -0x1.d7dbe8ff8470ap+7, -0x1.358a742b83ap+8, -0x1.8c7f60e5c9dcap+8,
        0x1.5cd0fb77e3458p+5},
       0x1.5cd0fb77e3458p+5, 5, 5, 1.0},
      // 2.125 s chunks put next buffers on half-bin ties (8.5 bins and up),
      // where lround rounds away from zero.
      {PinFamily::kBinEdges, 71, 4.25, 14.0,
       {-0x1.4e76a5d0eae64p+9, -0x1.04abca5b891c6p+10, -0x1.b2de94de2b42fp+8,
        -0x1.251174658db34p+9, -0x1.372741309583ap+8, -0x1.bdd40d4b366e1p+9,
        -0x1.5859cf2c4c65cp+8, -0x1.372c23e6fce3ep+9, -0x1.302e32f26bcf1p+9,
        0x1.09a9669bc4869p+5},
       0x1.09a9669bc4869p+5, 5, 5, 0.25, 2.125},
      {PinFamily::kTtpBins, 72, 5.5, 14.0,
       {0x1.005b3083b217p+6, 0x1.1466ea14133f1p+6, 0x1.2496083a596a6p+6,
        0x1.31a84b3ede29cp+6, 0x1.3c3b50c922632p+6, 0x1.3fbaca88d2c16p+6,
        0x1.424a3f7ea5cd6p+6, 0x1.4490f0afef965p+6, 0x1.469b8465b1b91p+6,
        0x1.481a77e76a127p+6},
       0x1.481a77e76a127p+6, 5, 5, 0.25, 2.125},
      {PinFamily::kPointMass, 73, 0.5, 14.0,
       {0x1.fdaea4d6e2a5p+5, 0x1.12e30d0c1e582p+6, 0x1.23122d7a1b792p+6,
        0x1.28e9bbac8f188p+6, 0x1.1b144df57ae1ap+6, 0x1.b2a1fa3b8010ep+5,
        0x1.3e2516077a856p+4, -0x1.02ee19bbede9cp+5, -0x1.c27b07f0b3f9cp+5,
        -0x1.8fd073abdbea6p+6},
       0x1.28e9bbac8f188p+6, 5, 5, 0.25, 2.125},
      // Empty buffer, and buffers at and above max_buffer_s.
      {PinFamily::kTtpBins, 81, 0.0, 14.0,
       {0x1.333c6222234e3p+5, 0x1.452c9d5dd4516p+5, 0x1.42566a0ebd69ep+5,
        0x1.2951fd9b47f64p+5, 0x1.efe84fa9364a4p+4, 0x1.271a357a7958fp+4,
        0x1.36546e9b8a1c4p+2, -0x1.7f3592e25c518p+3, -0x1.fd06c4c4ff7dfp+4,
        -0x1.8c7f2581936f8p+5},
       0x1.452c9d5dd4516p+5},
      {PinFamily::kPointMass, 82, 15.0, 14.0,
       {0x1.005b3b172d026p+6, 0x1.1466f5b7da08p+6, 0x1.24961625d729p+6,
        0x1.31a85e0f1f12cp+6, 0x1.3c3b6e2b9099ep+6, 0x1.3fbb05e654401p+6,
        0x1.424abc66fa4dbp+6, 0x1.44921b0a760aep+6, 0x1.469eac5a9821ap+6,
        0x1.4822950653d18p+6},
       0x1.4822950653d18p+6},
      {PinFamily::kTtpBins, 83, 20.0, 14.0,
       {0x1.005b3b172d027p+6, 0x1.1466f5b7da08p+6, 0x1.24961625d7291p+6,
        0x1.31a85e0f1f12cp+6, 0x1.3c3b6e2b9099fp+6, 0x1.3fbb05e654401p+6,
        0x1.424abc66fa4dbp+6, 0x1.44921b0a760adp+6, 0x1.469eac5a9821bp+6,
        0x1.4822950653d18p+6},
       0x1.4822950653d18p+6},
  };
  ASSERT_FALSE(pins.empty());
  for (const PlanPin& pin : pins) {
    MpcConfig config;
    config.horizon = pin.horizon;
    config.buffer_bin_s = pin.buffer_bin_s;
    config.chunk_duration_s = pin.chunk_duration_s;
    StochasticMpc mpc{config};
    ScriptedPredictor predictor{[&pin](const int step, const int64_t size) {
      return pinned_distribution(pin.family, pin.seed, step, size);
    }};
    AbrObservation obs;
    obs.buffer_s = pin.buffer_s;
    obs.prev_ssim_db = pin.prev_ssim_db;
    const auto lookahead = make_lookahead(pin.lookahead);
    mpc.plan(obs, lookahead, predictor);
    const std::span<const double> roots = mpc.last_root_values();
    ASSERT_EQ(roots.size(), pin.root_values.size());
    for (size_t a = 0; a < roots.size(); a++) {
      EXPECT_EQ(std::bit_cast<uint64_t>(roots[a]),
                std::bit_cast<uint64_t>(pin.root_values[a]))
          << "family " << static_cast<int>(pin.family) << " seed " << pin.seed
          << " action " << a << ": got " << std::hexfloat << roots[a]
          << ", pinned " << pin.root_values[a];
    }
    EXPECT_EQ(std::bit_cast<uint64_t>(mpc.last_plan_value()),
              std::bit_cast<uint64_t>(pin.plan_value))
        << "family " << static_cast<int>(pin.family) << " seed " << pin.seed
        << ": got " << std::hexfloat << mpc.last_plan_value() << ", pinned "
        << pin.plan_value;
  }
}

TEST(Mpc, ShortLookaheadStillWorks) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(8e6 / 8.0);
  AbrObservation obs;
  obs.buffer_s = 8.0;
  obs.prev_ssim_db = 14.0;
  const auto lookahead = make_lookahead(1);  // live edge: only one chunk known
  const int choice = mpc.plan(obs, lookahead, predictor);
  EXPECT_GE(choice, 0);
  EXPECT_LT(choice, media::kNumRungs);
}

TEST(Mpc, EmptyLookaheadRejected) {
  StochasticMpc mpc;
  ScriptedPredictor predictor = constant_throughput(1e6);
  AbrObservation obs;
  EXPECT_THROW(mpc.plan(obs, {}, predictor), RequirementError);
}

/// Constructing a planner from `config` throws a RequirementError whose
/// message names `field`.
void expect_config_rejected(const MpcConfig& config, const std::string& field) {
  try {
    StochasticMpc mpc{config};
    ADD_FAILURE() << field << ": config accepted";
  } catch (const RequirementError& e) {
    EXPECT_NE(std::string{e.what()}.find(field), std::string::npos)
        << e.what();
  }
}

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

TEST(Mpc, RejectsBadMaxBuffer) {
  for (const double value : {0.0, -1.0, kInf, kNaN}) {
    MpcConfig config;
    config.max_buffer_s = value;
    expect_config_rejected(config, "max_buffer_s");
  }
}

TEST(Mpc, RejectsBadChunkDuration) {
  for (const double value : {0.0, -2.002, kNaN}) {
    MpcConfig config;
    config.chunk_duration_s = value;
    expect_config_rejected(config, "chunk_duration_s");
  }
}

TEST(Mpc, RejectsBinWiderThanBuffer) {
  MpcConfig config;
  config.buffer_bin_s = config.max_buffer_s + 0.25;
  expect_config_rejected(config, "buffer_bin_s");
  config.buffer_bin_s = config.max_buffer_s;  // one bin is still a lattice
  EXPECT_NO_THROW(StochasticMpc{config});
}

TEST(Mpc, RejectsBadStallWeight) {
  for (const double value : {-1.0, -kInf, kInf, kNaN}) {
    MpcConfig config;
    config.mu = value;
    expect_config_rejected(config, "mu");
  }
}

TEST(Mpc, RejectsBadVariationWeight) {
  for (const double value : {-0.5, kInf, kNaN}) {
    MpcConfig config;
    config.lambda = value;
    expect_config_rejected(config, "lambda");
  }
}

TEST(Mpc, RejectsBadPruneProbability) {
  for (const double value : {-1e-4, 1.0, 2.0, kNaN}) {
    MpcConfig config;
    config.prune_probability = value;
    expect_config_rejected(config, "prune_probability");
  }
  MpcConfig config;
  config.prune_probability = 0.0;  // keep every outcome
  EXPECT_NO_THROW(StochasticMpc{config});
}

TEST(MpcAbr, EndToEndWithHarmonicMean) {
  MpcAbr abr{"MPC-HM", std::make_unique<HarmonicMeanPredictor>()};
  AbrObservation obs;
  obs.buffer_s = 10.0;
  obs.prev_ssim_db = -1.0;
  const auto lookahead = make_lookahead(5);

  // Feed a fast history; the controller should go high.
  for (int i = 0; i < 5; i++) {
    abr.on_chunk_complete(record_at_throughput(i, 1e6, 8e6));
  }
  const int fast_choice = abr.choose_rung(obs, lookahead);

  abr.reset_session();
  for (int i = 0; i < 5; i++) {
    abr.on_chunk_complete(record_at_throughput(i, 1e6, 0.1e6));
  }
  const int slow_choice = abr.choose_rung(obs, lookahead);
  EXPECT_GT(fast_choice, slow_choice);
}

TEST(MpcAbr, RequiresPredictor) {
  EXPECT_THROW(MpcAbr("x", nullptr), RequirementError);
}

}  // namespace
}  // namespace puffer::abr
