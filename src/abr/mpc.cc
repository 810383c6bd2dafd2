#include "abr/mpc.hh"

#include <algorithm>
#include <cmath>

#include "util/require.hh"

namespace puffer::abr {

namespace {

/// Prune negligible-probability outcomes and renormalize; keeps planning
/// cheap without changing the distribution materially.
void prune_distribution(TxTimeDistribution& dist, const double min_probability) {
  double kept_mass = 0.0;
  size_t out = 0;
  for (const auto& outcome : dist) {
    if (outcome.probability >= min_probability) {
      dist[out++] = outcome;
      kept_mass += outcome.probability;
    }
  }
  if (out == 0) {
    // Keep the single most likely outcome.
    const auto best =
        std::max_element(dist.begin(), dist.end(),
                         [](const TxTimeOutcome& a, const TxTimeOutcome& b) {
                           return a.probability < b.probability;
                         });
    dist = {TxTimeOutcome{best->time_s, 1.0}};
    return;
  }
  dist.resize(out);
  for (auto& outcome : dist) {
    outcome.probability /= kept_mass;
  }
}

}  // namespace

StochasticMpc::StochasticMpc(const MpcConfig config) : config_(config) {
  require(config_.horizon >= 1, "StochasticMpc: horizon must be >= 1");
  require(std::isfinite(config_.max_buffer_s) && config_.max_buffer_s > 0.0,
          "StochasticMpc: max_buffer_s must be finite and > 0");
  require(config_.buffer_bin_s > 0.0, "StochasticMpc: bin size must be > 0");
  require(config_.buffer_bin_s <= config_.max_buffer_s,
          "StochasticMpc: buffer_bin_s must be <= max_buffer_s");
  require(config_.chunk_duration_s > 0.0,
          "StochasticMpc: chunk_duration_s must be > 0");
  require(std::isfinite(config_.mu) && config_.mu >= 0.0,
          "StochasticMpc: mu must be finite and >= 0");
  require(std::isfinite(config_.lambda) && config_.lambda >= 0.0,
          "StochasticMpc: lambda must be finite and >= 0");
  require(config_.prune_probability >= 0.0 && config_.prune_probability < 1.0,
          "StochasticMpc: prune_probability must be in [0, 1)");
  num_bins_ =
      static_cast<int>(std::ceil(config_.max_buffer_s / config_.buffer_bin_s));
  // Every next buffer is at least min(chunk_duration_s, max_buffer_s), so no
  // transition lands below this bin.
  first_live_bin_ = buffer_to_bin(
      std::min(config_.chunk_duration_s, config_.max_buffer_s));
}

int StochasticMpc::buffer_to_bin(const double buffer_s) const {
  // Round half away from zero, as std::lround does: x lies in
  // [0, num_bins_], so the truncation is the floor and x - whole is exact.
  const double x =
      std::clamp(buffer_s, 0.0, config_.max_buffer_s) / config_.buffer_bin_s;
  const int whole = static_cast<int>(x);
  return whole + (x - whole >= 0.5 ? 1 : 0);
}

double StochasticMpc::next_buffer_s(const double buffer_s,
                                    const double tx_time_s) const {
  return std::min(std::max(buffer_s - tx_time_s, 0.0) +
                      config_.chunk_duration_s,
                  config_.max_buffer_s);
}

const int* StochasticMpc::next_bin_row(const double tx_time_s) {
  const size_t bins = static_cast<size_t>(num_bins_) + 1;
  size_t row = 0;
  while (row < next_bin_row_times_.size() &&
         next_bin_row_times_[row] != tx_time_s) {
    row++;
  }
  if (row == next_bin_row_times_.size()) {
    next_bin_row_times_.push_back(tx_time_s);
    next_bin_rows_.resize(next_bin_row_times_.size() * bins);
    int* out = next_bin_rows_.data() + row * bins;
    for (size_t b = static_cast<size_t>(first_live_bin_); b < bins; b++) {
      out[b] = buffer_to_bin(
          next_buffer_s(static_cast<int>(b) * config_.buffer_bin_s, tx_time_s));
    }
  }
  return next_bin_rows_.data() + row * bins;
}

size_t StochasticMpc::state_index(const int step, const int buffer_bin,
                                  const int prev_rung) const {
  return (static_cast<size_t>(step) * static_cast<size_t>(num_bins_ + 1) +
          static_cast<size_t>(buffer_bin)) *
             media::kNumRungs +
         static_cast<size_t>(prev_rung);
}

double StochasticMpc::chunk_qoe(const double ssim_db, const double prev_ssim_db,
                                const double tx_time_s,
                                const double buffer_s) const {
  double qoe = ssim_db;
  if (prev_ssim_db >= 0.0) {
    qoe -= config_.lambda * std::abs(ssim_db - prev_ssim_db);
  }
  const double stall = std::max(tx_time_s - buffer_s, 0.0);
  qoe -= config_.mu * stall;
  return qoe;
}

void StochasticMpc::prepare_plan(
    const std::span<const media::ChunkOptions> lookahead,
    TxTimePredictor& predictor) {
  require(!lookahead.empty(), "StochasticMpc::plan: empty lookahead");
  lookahead_ = lookahead;
  effective_horizon_ =
      std::min<int>(config_.horizon, static_cast<int>(lookahead.size()));

  // Precompute (and prune) one distribution per (step, rung). All queries
  // of the decision are issued in one predict_batch call so learned
  // predictors can answer them with fused forward passes.
  enumerate_tx_time_queries(lookahead, config_.horizon, queries_);
  predictor.predict_batch(queries_, distributions_);
  require(distributions_.size() == queries_.size(),
          "StochasticMpc: predictor answered the wrong number of queries");
  for (TxTimeDistribution& dist : distributions_) {
    require(!dist.empty(), "StochasticMpc: predictor returned empty dist");
    prune_distribution(dist, config_.prune_probability);
  }
}

void StochasticMpc::fill_switch_penalty(const int step) {
  // Quality + switch-penalty term per (previous rung, action); it does not
  // depend on the buffer. Matches chunk_qoe: a negative previous SSIM means
  // "no previous quality", so the variation term is skipped.
  constexpr int R = media::kNumRungs;
  for (int prev = 0; prev < R; prev++) {
    const double prev_ssim =
        lookahead_[static_cast<size_t>(step - 1)]
            .versions[static_cast<size_t>(prev)].ssim_db;
    for (int action = 0; action < R; action++) {
      const double ssim =
          lookahead_[static_cast<size_t>(step)].versions[static_cast<size_t>(
              action)].ssim_db;
      const double penalty =
          prev_ssim >= 0.0 ? config_.lambda * std::abs(ssim - prev_ssim) : 0.0;
      switch_penalty_[static_cast<size_t>(prev) * R +
                      static_cast<size_t>(action)] = ssim - penalty;
    }
  }
}

double StochasticMpc::step_one_value(const int buffer_bin, const int prev_rung) {
  constexpr int R = media::kNumRungs;
  const int bins = num_bins_ + 1;
  // The step-1 expectations reuse expect_base_, which the sweep is done with.
  double* expect = expect_base_.data() + buffer_bin;
  if (step_one_ready_[static_cast<size_t>(buffer_bin)] == 0) {
    // The sweep's expectation at one bin: the same outcome-ordered sum, with
    // each transition computed directly instead of from a next-bin row.
    const double buffer_s = buffer_bin * config_.buffer_bin_s;
    for (int action = 0; action < R; action++) {
      const double* next_value =
          value_next_.data() + static_cast<size_t>(action) * bins;
      double sum = 0.0;
      for (const TxTimeOutcome& outcome :
           distributions_[static_cast<size_t>(R + action)]) {
        const double t = outcome.time_s;
        const double stall = t > buffer_s ? t - buffer_s : 0.0;
        sum += outcome.probability *
               (next_value[buffer_to_bin(next_buffer_s(buffer_s, t))] -
                config_.mu * stall);
      }
      expect[static_cast<size_t>(action) * bins] = sum;
    }
    step_one_ready_[static_cast<size_t>(buffer_bin)] = 1;
  }
  const double* penalty =
      switch_penalty_.data() + static_cast<size_t>(prev_rung) * R;
  double best = -std::numeric_limits<double>::infinity();
  for (int action = 0; action < R; action++) {
    const double value =
        penalty[action] + expect[static_cast<size_t>(action) * bins];
    best = best < value ? value : best;
  }
  return best;
}

int StochasticMpc::plan_root(const AbrObservation& obs) {
  // Root step: continuous buffer, previous quality from the observation.
  int best_action = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  root_values_.assign(media::kNumRungs, 0.0);
  for (int action = 0; action < media::kNumRungs; action++) {
    const auto& version = lookahead_[0].versions[static_cast<size_t>(action)];
    const TxTimeDistribution& dist = distributions_[static_cast<size_t>(action)];
    double expected = 0.0;
    for (const auto& outcome : dist) {
      const double qoe = chunk_qoe(version.ssim_db, obs.prev_ssim_db,
                                   outcome.time_s, obs.buffer_s);
      const double continuation =
          effective_horizon_ > 1
              ? step_one_value(
                    buffer_to_bin(next_buffer_s(obs.buffer_s, outcome.time_s)),
                    action)
              : 0.0;
      expected += outcome.probability * (qoe + continuation);
    }
    root_values_[static_cast<size_t>(action)] = expected;
    if (expected > best_value) {
      best_value = expected;
      best_action = action;
    }
  }
  last_plan_value_ = best_value;
  return best_action;
}

int StochasticMpc::plan(const AbrObservation& obs,
                        const std::span<const media::ChunkOptions> lookahead,
                        TxTimePredictor& predictor) {
  prepare_plan(lookahead, predictor);

  constexpr int R = media::kNumRungs;
  const int bins = num_bins_ + 1;
  const int lo = first_live_bin_;
  const size_t plane = static_cast<size_t>(bins) * R;
  // mu * stall on the no-stall side, where stall = 0.0.
  const double mu_no_stall = config_.mu * 0.0;

  // Backward sweep over steps H-1..2 of the (step x previous-rung x
  // buffer-bin) lattice. value_next_ holds V[step + 1]; V[effective_horizon_]
  // = 0. Bins below first_live_bin_ are never read and are left stale.
  value_next_.assign(plane, 0.0);
  value_cur_.resize(plane);
  expect_base_.resize(plane);
  switch_penalty_.resize(static_cast<size_t>(R) * R);

  next_bin_row_times_.clear();

  for (int step = effective_horizon_ - 1; step >= 2; step--) {
    // 1. Fold the outcome expectation once per (action, bin):
    //      expect_base_[a][b] = sum_o p_o * (V[step+1][a][nb] - mu * stall)
    //    The bin transition nb of each outcome time is one next-bin row,
    //    built once per plan and shared by every (step, action, outcome)
    //    with that time (Fugu's outcomes are the 21 TTP bin midpoints).
    //    Stalls fall on a prefix of the bins, so the loop splits there.
    for (int action = 0; action < R; action++) {
      double* base = expect_base_.data() + static_cast<size_t>(action) * bins;
      std::fill(base + lo, base + bins, 0.0);
      const double* next_value =
          value_next_.data() + static_cast<size_t>(action) * bins;
      for (const TxTimeOutcome& outcome :
           distributions_[static_cast<size_t>(step) * R +
                          static_cast<size_t>(action)]) {
        const double t = outcome.time_s;
        const double p = outcome.probability;
        const int* next_bin = next_bin_row(t);
        int b = lo;
        for (; b < bins; b++) {
          const double buffer_s = b * config_.buffer_bin_s;
          if (!(t > buffer_s)) {
            break;
          }
          base[b] += p * (next_value[next_bin[b]] - config_.mu * (t - buffer_s));
        }
        for (; b < bins; b++) {
          base[b] += p * (next_value[next_bin[b]] - mu_no_stall);
        }
      }
    }

    // 2. Maximize over actions for every (previous rung, bin) state. Bins
    //    are the vector axis; actions stay in order 0..R-1 per bin.
    fill_switch_penalty(step);
    for (int prev = 0; prev < R; prev++) {
      double penalty[R];
      std::copy_n(switch_penalty_.data() + static_cast<size_t>(prev) * R, R,
                  penalty);
      double* out = value_cur_.data() + static_cast<size_t>(prev) * bins;
      for (int b = lo; b < bins; b++) {
        double best = -std::numeric_limits<double>::infinity();
        for (int action = 0; action < R; action++) {
          const double value =
              penalty[action] +
              expect_base_[static_cast<size_t>(action) * bins +
                           static_cast<size_t>(b)];
          best = best < value ? value : best;
        }
        out[b] = best;
      }
    }
    std::swap(value_cur_, value_next_);
  }

  // value_next_ now holds V[2] (zeros when the horizon is 2). Step 1 is read
  // only by the root, at one bin per (action, outcome): plan_root computes
  // those states on demand.
  if (effective_horizon_ > 1) {
    fill_switch_penalty(1);
    step_one_ready_.assign(static_cast<size_t>(bins), 0);
  }
  return plan_root(obs);
}

// ---------------------------------------------------------------------------
// Reference path: the seed's recursive value iteration with epoch-tagged
// memoization, retained verbatim as the oracle for the iterative sweep.
// ---------------------------------------------------------------------------

double StochasticMpc::value_of(const int step, const int buffer_bin,
                               const int prev_rung) {
  if (step >= effective_horizon_) {
    return 0.0;
  }
  const size_t index = state_index(step, buffer_bin, prev_rung);
  if (memo_epoch_[index] == epoch_) {
    return memo_value_[index];
  }

  const double buffer_s = buffer_bin * config_.buffer_bin_s;
  const double prev_ssim_db =
      lookahead_[static_cast<size_t>(step - 1)].versions[static_cast<size_t>(
          prev_rung)].ssim_db;

  double best = -std::numeric_limits<double>::infinity();
  for (int action = 0; action < media::kNumRungs; action++) {
    const auto& version =
        lookahead_[static_cast<size_t>(step)].versions[static_cast<size_t>(action)];
    const TxTimeDistribution& dist =
        distributions_[static_cast<size_t>(step) * media::kNumRungs +
                       static_cast<size_t>(action)];
    double expected = 0.0;
    for (const auto& outcome : dist) {
      const double qoe =
          chunk_qoe(version.ssim_db, prev_ssim_db, outcome.time_s, buffer_s);
      const double next_buffer =
          std::min(std::max(buffer_s - outcome.time_s, 0.0) +
                       config_.chunk_duration_s,
                   config_.max_buffer_s);
      expected += outcome.probability *
                  (qoe + value_of(step + 1, buffer_to_bin(next_buffer), action));
    }
    best = std::max(best, expected);
  }

  memo_epoch_[index] = epoch_;
  memo_value_[index] = best;
  return best;
}

int StochasticMpc::plan_reference(
    const AbrObservation& obs,
    const std::span<const media::ChunkOptions> lookahead,
    TxTimePredictor& predictor) {
  prepare_plan(lookahead, predictor);
  if (memo_epoch_.empty()) {
    // Allocated on first use: only the equivalence tests call this path,
    // and every planner in a fleet would otherwise carry the memo.
    const size_t states = static_cast<size_t>(config_.horizon + 1) *
                          static_cast<size_t>(num_bins_ + 1) *
                          media::kNumRungs;
    memo_value_.assign(states, 0.0);
    memo_epoch_.assign(states, 0);
  }
  epoch_++;

  int best_action = 0;
  double best_value = -std::numeric_limits<double>::infinity();
  root_values_.assign(media::kNumRungs, 0.0);
  for (int action = 0; action < media::kNumRungs; action++) {
    const auto& version = lookahead[0].versions[static_cast<size_t>(action)];
    const TxTimeDistribution& dist = distributions_[static_cast<size_t>(action)];
    double expected = 0.0;
    for (const auto& outcome : dist) {
      const double qoe = chunk_qoe(version.ssim_db, obs.prev_ssim_db,
                                   outcome.time_s, obs.buffer_s);
      const double next_buffer =
          std::min(std::max(obs.buffer_s - outcome.time_s, 0.0) +
                       config_.chunk_duration_s,
                   config_.max_buffer_s);
      expected += outcome.probability *
                  (qoe + value_of(1, buffer_to_bin(next_buffer), action));
    }
    root_values_[static_cast<size_t>(action)] = expected;
    if (expected > best_value) {
      best_value = expected;
      best_action = action;
    }
  }
  last_plan_value_ = best_value;
  return best_action;
}

}  // namespace puffer::abr
