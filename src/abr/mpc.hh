#ifndef PUFFER_ABR_MPC_HH
#define PUFFER_ABR_MPC_HH

#include <vector>

#include "abr/predictor.hh"

namespace puffer::abr {

/// Configuration of the model-predictive controller (paper sections 4.1,
/// 4.4, 4.5): QoE(K) = Q(K) - lambda*|Q(K)-Q(prev)| - mu*stall, horizon
/// H = 5 chunks, value iteration over a discretized buffer.
struct MpcConfig {
  int horizon = 5;
  double lambda = 1.0;           ///< quality-variation weight
  double mu = 100.0;             ///< stall weight (per second of stall)
  double buffer_bin_s = 0.25;    ///< buffer discretization
  double max_buffer_s = 15.0;    ///< client buffer cap
  double chunk_duration_s = 2.002;
  /// Planning drops outcomes below this probability. Kept very small: with
  /// mu = 100, even a low-probability worst-case bin (10.5 s) carries real
  /// expected cost, and hiding tail risk is exactly the failure mode
  /// stochastic MPC exists to avoid (section 4.6).
  double prune_probability = 1e-4;
};

/// Stochastic model-predictive controller: maximizes expected cumulative QoE
/// over the lookahead horizon — exactly the paper's section 4.4 formulation.
/// Works with any TxTimePredictor:
///  * degenerate (point-mass) distributions reproduce classical MPC;
///  * Fugu's probabilistic TTP makes it a stochastic optimal controller.
///
/// plan() runs the dynamic program as an iterative backward sweep over the
/// (step x previous-rung x buffer-bin) lattice, each step's value plane laid
/// out [rung][bin]:
///  * Steps H-1..2 are swept in full. Per step, the expectation over
///    transmission-time outcomes is folded once per (action, bin), reading
///    each outcome time's bin transitions from a next-bin row built once per
///    plan; the maximization over actions then runs with bins as the vector
///    axis (actions in order per bin, so it vectorizes to packed max).
///  * Dead bins: every next buffer is at least min(chunk_duration_s,
///    max_buffer_s), so bins below that one are never read and are skipped.
///  * Step 1 is read only by the root, at one bin per (action, outcome), so
///    plan_root computes V[1] on demand at those states, memoizing each
///    bin's per-action expectations within the plan.
/// Every value that is computed comes from the same floating-point
/// operations in the same order as a full sweep, so skipping work never
/// moves a bit. plan_reference() retains the original recursive/memoized
/// implementation as the oracle for the equivalence property tests.
class StochasticMpc {
 public:
  explicit StochasticMpc(MpcConfig config = {});

  /// Plan and return the rung to send now. The predictor must already have
  /// been primed with begin_decision(obs).
  int plan(const AbrObservation& obs,
           std::span<const media::ChunkOptions> lookahead,
           TxTimePredictor& predictor);

  /// Retained naive implementation (recursive value iteration with epoch-
  /// tagged memoization — the seed code). Used by tests to pin plan()'s
  /// decisions; the two agree up to floating-point reassociation of the
  /// expectation sum.
  int plan_reference(const AbrObservation& obs,
                     std::span<const media::ChunkOptions> lookahead,
                     TxTimePredictor& predictor);

  [[nodiscard]] const MpcConfig& config() const { return config_; }

  /// Expected total QoE of the most recent plan (for tests/diagnostics).
  [[nodiscard]] double last_plan_value() const { return last_plan_value_; }

  /// Per-action expected total QoE at the root of the most recent plan
  /// (for tests/diagnostics; index = rung).
  [[nodiscard]] std::span<const double> last_root_values() const {
    return root_values_;
  }

 private:
  [[nodiscard]] int buffer_to_bin(double buffer_s) const;
  /// Buffer after sending a chunk that takes `tx_time_s` from `buffer_s`.
  [[nodiscard]] double next_buffer_s(double buffer_s, double tx_time_s) const;
  [[nodiscard]] size_t state_index(int step, int buffer_bin, int prev_rung) const;

  /// The next-bin row of an outcome time: row[b] = buffer_to_bin of the
  /// buffer after a chunk taking `tx_time_s` is sent from bin b. Built on
  /// first use within a plan; the pointer is valid until the next call.
  const int* next_bin_row(double tx_time_s);

  /// Shared plan setup: cache the lookahead, issue all (step x rung)
  /// queries in one predict_batch call, prune the distributions.
  void prepare_plan(std::span<const media::ChunkOptions> lookahead,
                    TxTimePredictor& predictor);

  /// switch_penalty_ for `step`: the chunk's SSIM minus the variation term,
  /// per (previous rung, action).
  void fill_switch_penalty(int step);

  /// V[1] at one (bin, previous rung) state, from V[2] in value_next_ and
  /// step 1's switch_penalty_. Memoizes the bin's per-action expectations
  /// in expect_base_.
  double step_one_value(int buffer_bin, int prev_rung);

  /// Root maximization over the continuous (un-binned) buffer, reading V[1]
  /// through step_one_value (zero when the horizon is 1). Returns the argmax
  /// rung and fills root_values_.
  int plan_root(const AbrObservation& obs);

  /// Reference-path recursion (memoized); only plan_reference() calls it.
  double value_of(int step, int buffer_bin, int prev_rung);

  /// QoE of choosing `version` given previous quality `prev_ssim_db`
  /// (variation term skipped when prev_ssim_db < 0) and the stall implied by
  /// transmission time vs. buffer.
  [[nodiscard]] double chunk_qoe(double ssim_db, double prev_ssim_db,
                                 double tx_time_s, double buffer_s) const;

  MpcConfig config_;
  int num_bins_ = 0;
  int first_live_bin_ = 0;  ///< lowest bin any transition lands in

  // Per-plan scratch (kept across calls to avoid reallocation).
  std::span<const media::ChunkOptions> lookahead_;
  int effective_horizon_ = 0;
  std::vector<TxTimeQuery> queries_;               // [step * kNumRungs + rung]
  std::vector<TxTimeDistribution> distributions_;  // [step * kNumRungs + rung]
  double last_plan_value_ = 0.0;
  std::vector<double> root_values_;  // [rung]

  // Iterative-sweep lattice planes, indexed [rung * (num_bins_+1) + bin].
  std::vector<double> value_cur_;
  std::vector<double> value_next_;
  std::vector<double> expect_base_;  // [action * (num_bins_+1) + bin]
  std::vector<double> switch_penalty_;  // [prev_rung * kNumRungs + action]
  std::vector<double> next_bin_row_times_;  // [row], distinct in this plan
  std::vector<int> next_bin_rows_;          // [row * (num_bins_+1) + bin]
  std::vector<uint8_t> step_one_ready_;  // [bin]: step 1's expect_base_ set

  // Reference-path memo (epoch-tagged; untouched by plan(); allocated by
  // the first plan_reference() call).
  std::vector<double> memo_value_;
  std::vector<uint32_t> memo_epoch_;
  uint32_t epoch_ = 0;
};

}  // namespace puffer::abr

#endif  // PUFFER_ABR_MPC_HH
