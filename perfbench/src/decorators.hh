#ifndef PERFBENCH_DECORATORS_HH
#define PERFBENCH_DECORATORS_HH

#include <cstdint>
#include <memory>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "abr/abr.hh"
#include "abr/predictor.hh"
#include "ledger.hh"
#include "net/congestion_control.hh"
#include "net/scenario.hh"

namespace perfbench {

/// Work counts taken at the same seams the spans time.
struct LayerCounts {
  int64_t predict_rows = 0;      ///< queries answered by predict_batch/predict
  int64_t predict_outcomes = 0;  ///< outcomes >= the pruning probability
  int64_t cc_samples = 0;
  int64_t path_samples = 0;
};

/// Timing decorator on an ABR scheme's decision.
class TimedAbr final : public puffer::abr::AbrAlgorithm {
 public:
  TimedAbr(std::unique_ptr<puffer::abr::AbrAlgorithm> inner, Ledger& ledger)
      : inner_(std::move(inner)), ledger_(ledger) {}

  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }
  void reset_session() override { inner_->reset_session(); }
  int choose_rung(
      const puffer::abr::AbrObservation& obs,
      std::span<const puffer::media::ChunkOptions> lookahead) override {
    const Scope scope{&ledger_, Layer::kAbrPlan};
    return inner_->choose_rung(obs, lookahead);
  }
  void on_chunk_complete(const puffer::abr::ChunkRecord& record) override {
    inner_->on_chunk_complete(record);
  }

 private:
  std::unique_ptr<puffer::abr::AbrAlgorithm> inner_;
  Ledger& ledger_;
};

/// Timing decorator on a transmission-time predictor (the TTP for Fugu, the
/// harmonic mean for MPC-HM). Forwards predict_batch as a batch, so a
/// batched TTP still answers a decision in fused forward passes.
class TimedPredictor final : public puffer::abr::TxTimePredictor {
 public:
  TimedPredictor(std::unique_ptr<puffer::abr::TxTimePredictor> inner,
                 Ledger& ledger, LayerCounts& counts, double prune_probability)
      : inner_(std::move(inner)),
        ledger_(ledger),
        counts_(counts),
        prune_probability_(prune_probability) {}

  void begin_decision(const puffer::abr::AbrObservation& obs) override {
    const Scope scope{&ledger_, Layer::kAbrPredict};
    inner_->begin_decision(obs);
  }
  puffer::abr::TxTimeDistribution predict(int step,
                                          int64_t size_bytes) override {
    puffer::abr::TxTimeDistribution out;
    {
      const Scope scope{&ledger_, Layer::kAbrPredict};
      out = inner_->predict(step, size_bytes);
    }
    count(out);
    return out;
  }
  void predict_batch(
      std::span<const puffer::abr::TxTimeQuery> queries,
      std::vector<puffer::abr::TxTimeDistribution>& out) override {
    {
      const Scope scope{&ledger_, Layer::kAbrPredict};
      inner_->predict_batch(queries, out);
    }
    for (const auto& distribution : out) {
      count(distribution);
    }
  }
  void on_chunk_complete(const puffer::abr::ChunkRecord& record) override {
    inner_->on_chunk_complete(record);
  }
  void reset_session() override { inner_->reset_session(); }

 private:
  void count(const puffer::abr::TxTimeDistribution& distribution) {
    counts_.predict_rows++;
    for (const auto& outcome : distribution) {
      if (outcome.probability >= prune_probability_) {
        counts_.predict_outcomes++;
      }
    }
  }

  std::unique_ptr<puffer::abr::TxTimePredictor> inner_;
  Ledger& ledger_;
  LayerCounts& counts_;
  double prune_probability_;
};

/// Timing decorator on the TCP sender's congestion controller.
class TimedCc final : public puffer::net::CongestionControl {
 public:
  TimedCc(std::unique_ptr<puffer::net::CongestionControl> inner,
          Ledger& ledger, LayerCounts& counts)
      : inner_(std::move(inner)), ledger_(ledger), counts_(counts) {}

  void on_sample(const puffer::net::CcSample& sample) override {
    counts_.cc_samples++;
    const LeafScope scope{ledger_, Layer::kNetCc};
    inner_->on_sample(sample);
  }
  [[nodiscard]] double cwnd_bytes() const override {
    return inner_->cwnd_bytes();
  }
  [[nodiscard]] double pacing_rate_bps() const override {
    return inner_->pacing_rate_bps();
  }
  [[nodiscard]] std::string_view name() const override {
    return inner_->name();
  }

 private:
  std::unique_ptr<puffer::net::CongestionControl> inner_;
  Ledger& ledger_;
  LayerCounts& counts_;
};

/// Timing decorator on a scenario's path generator.
class TimedPathGenerator final : public puffer::net::PathGenerator {
 public:
  TimedPathGenerator(std::unique_ptr<puffer::net::PathGenerator> inner,
                     Ledger& ledger, LayerCounts& counts)
      : inner_(std::move(inner)), ledger_(ledger), counts_(counts) {}

  [[nodiscard]] puffer::net::NetworkPath sample_path(
      puffer::Rng& rng, double duration_s) const override {
    counts_.path_samples++;
    const Scope scope{&ledger_, Layer::kNetPathGen};
    return inner_->sample_path(rng, duration_s);
  }

 private:
  std::unique_ptr<puffer::net::PathGenerator> inner_;
  Ledger& ledger_;
  LayerCounts& counts_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DECORATORS_HH
