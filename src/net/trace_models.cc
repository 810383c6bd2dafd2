#include "net/trace_models.hh"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <utility>

#include "util/require.hh"

namespace puffer::net {

namespace {

constexpr double kMbps = 1e6 / 8.0;  // bytes per second in one Mbit/s

size_t segments_for(const double duration_s, const double segment_s) {
  return static_cast<size_t>(std::ceil(duration_s / segment_s)) + 1;
}

}  // namespace

PufferPathModel::PufferPathModel(PufferPathConfig config) : config_(config) {
  require(config_.median_rate_mbps > 0.0, "PufferPathModel: bad median rate");
}

NetworkPath PufferPathModel::sample_path(Rng& rng, const double duration_s) const {
  const auto& cfg = config_;
  const size_t n = segments_for(duration_s, cfg.segment_duration_s);

  // Path-level base rate: lognormal across paths (heavy upper tail; the lower
  // tail forms the "slow path" population of Figure 8's right panel).
  const double log10_base =
      std::log10(cfg.median_rate_mbps) + rng.normal(0.0, cfg.log10_rate_sigma);
  const double base_mbps = std::pow(10.0, log10_base);

  // Path-level RTT: correlated with path speed (slow paths tend to sit behind
  // longer/loaded links); lognormal around 40 ms.
  const double rtt_shift = std::clamp(0.3 * (std::log10(cfg.median_rate_mbps) -
                                             log10_base),
                                      -0.3, 0.6);
  const double min_rtt =
      std::clamp(0.040 * std::exp(rng.normal(rtt_shift, 0.45)), 0.004, 0.800);

  std::vector<double> rates(n);
  double drift = 0.0;          // OU process in log space
  double regime = 0.0;         // cumulative log regime shift
  double outage_left_s = 0.0;  // remaining outage duration

  // Per-segment arrival probabilities of the two Poisson processes.
  const double dt = cfg.segment_duration_s;
  const double p_regime_shift = 1.0 - std::exp(-cfg.regime_shift_rate_hz * dt);
  const double p_outage = 1.0 - std::exp(-cfg.outage_rate_hz * dt);
  for (size_t i = 0; i < n; i++) {
    // OU drift.
    drift += -cfg.ou_reversion * drift + rng.normal(0.0, cfg.ou_volatility);
    // Regime shifts arrive as a Poisson process.
    if (rng.bernoulli(p_regime_shift)) {
      regime += rng.normal(0.0, cfg.regime_shift_sigma);
      // Pull extreme regimes gently back toward the base rate.
      regime = std::clamp(regime, -2.5, 1.5);
    }
    // Outages.
    if (outage_left_s <= 0.0 && rng.bernoulli(p_outage)) {
      outage_left_s = rng.exponential(1.0 / cfg.outage_mean_duration_s);
    }

    double rate_mbps = base_mbps * std::exp(drift + regime);
    if (outage_left_s > 0.0) {
      rate_mbps = std::min(rate_mbps, cfg.outage_floor_mbps *
                                          std::exp(rng.normal(0.0, 0.5)));
      outage_left_s -= dt;
    }
    rates[i] = std::clamp(rate_mbps, 0.008, cfg.max_rate_mbps) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), cfg.segment_duration_s},
                     min_rtt};
}

FccTraceModel::FccTraceModel(FccTraceConfig config) : config_(config) {
  require(config_.median_rate_mbps > 0.0, "FccTraceModel: bad median rate");
}

NetworkPath FccTraceModel::sample_path(Rng& rng, const double duration_s) const {
  const auto& cfg = config_;
  const size_t n = segments_for(duration_s, cfg.segment_duration_s);

  const double log10_base =
      std::log10(cfg.median_rate_mbps) + rng.normal(0.0, cfg.log10_rate_sigma);
  const double base_mbps = std::pow(10.0, log10_base);

  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    const double rate_mbps =
        base_mbps * std::exp(rng.normal(0.0, cfg.wobble_sigma));
    rates[i] =
        std::clamp(rate_mbps, cfg.min_rate_mbps, cfg.max_rate_mbps) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), cfg.segment_duration_s},
                     cfg.shell_rtt_s};
}

MarkovTraceModel::MarkovTraceModel(MarkovTraceConfig config) : config_(config) {
  require(config_.num_states >= 2, "MarkovTraceModel: need >= 2 states");
  require(config_.stay_probability > 0.0 && config_.stay_probability < 1.0,
          "MarkovTraceModel: stay probability in (0,1)");
}

NetworkPath MarkovTraceModel::sample_path(Rng& rng, const double duration_s) const {
  const auto& cfg = config_;
  const size_t n = segments_for(duration_s, cfg.segment_duration_s);

  // State levels symmetric around the mean rate.
  std::vector<double> levels(static_cast<size_t>(cfg.num_states));
  for (int s = 0; s < cfg.num_states; s++) {
    levels[static_cast<size_t>(s)] =
        cfg.mean_rate_mbps +
        (s - (cfg.num_states - 1) / 2.0) * cfg.state_spread_mbps;
  }

  int state = static_cast<int>(rng.uniform_int(0, cfg.num_states - 1));
  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    if (!rng.bernoulli(cfg.stay_probability)) {
      // Move to a uniformly-chosen different state (CS2P-style jumps).
      int next = static_cast<int>(rng.uniform_int(0, cfg.num_states - 2));
      if (next >= state) {
        next++;
      }
      state = next;
    }
    const double rate_mbps =
        std::max(0.05, levels[static_cast<size_t>(state)] +
                           rng.normal(0.0, cfg.within_state_sigma_mbps));
    rates[i] = rate_mbps * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), cfg.segment_duration_s},
                     0.040};
}

CellularPathModel::CellularPathModel(CellularPathConfig config)
    : config_(std::move(config)) {
  require(config_.state_rates_mbps.size() >= 2,
          "CellularPathModel: need >= 2 states");
  for (const double rate : config_.state_rates_mbps) {
    require(rate > 0.0, "CellularPathModel: state rates must be positive");
  }
  require(config_.stay_probability > 0.0 && config_.stay_probability < 1.0,
          "CellularPathModel: stay probability in (0,1)");
}

NetworkPath CellularPathModel::sample_path(Rng& rng,
                                           const double duration_s) const {
  const auto& cfg = config_;
  const size_t n = segments_for(duration_s, cfg.segment_duration_s);
  const int num_states = static_cast<int>(cfg.state_rates_mbps.size());

  const double min_rtt = std::clamp(
      cfg.median_rtt_s * std::exp(rng.normal(0.0, cfg.log_rtt_sigma)),
      0.020, 0.400);

  // Start biased toward the middle of the chain (nominal coverage).
  int state = static_cast<int>(rng.uniform_int(num_states / 2,
                                               num_states - 1));
  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    if (!rng.bernoulli(cfg.stay_probability)) {
      // Channel quality walks one state at a time.
      const int step = rng.bernoulli(0.5) ? 1 : -1;
      state = std::clamp(state + step, 0, num_states - 1);
    }
    const double mean =
        cfg.state_rates_mbps[static_cast<size_t>(state)];
    const double rate_mbps =
        mean * std::exp(rng.normal(0.0, cfg.within_state_sigma));
    rates[i] = std::clamp(rate_mbps, 0.02, 150.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), cfg.segment_duration_s},
                     min_rtt};
}

DiurnalPathModel::DiurnalPathModel(DiurnalPathConfig config)
    : config_(config) {
  require(config_.median_rate_mbps > 0.0, "DiurnalPathModel: bad median rate");
  require(config_.trough_fraction > 0.0 && config_.trough_fraction <= 1.0,
          "DiurnalPathModel: trough fraction in (0,1]");
}

NetworkPath DiurnalPathModel::sample_path(Rng& rng,
                                          const double duration_s) const {
  const auto& cfg = config_;
  const size_t n = segments_for(duration_s, cfg.segment_duration_s);

  const double log10_base =
      std::log10(cfg.median_rate_mbps) + rng.normal(0.0, cfg.log10_rate_sigma);
  const double base_mbps = std::pow(10.0, log10_base);
  // Session starts at a uniform time of day.
  const double start_hour = rng.uniform(0.0, 24.0);

  std::vector<double> rates(n);
  for (size_t i = 0; i < n; i++) {
    const double hour = start_hour + static_cast<double>(i) *
                                         cfg.segment_duration_s / 3600.0;
    // Congestion factor: 1 off-peak, trough_fraction at the peak hour.
    const double phase = 2.0 * std::numbers::pi * (hour - cfg.peak_hour) / 24.0;
    const double congestion =
        1.0 - (1.0 - cfg.trough_fraction) * 0.5 * (1.0 + std::cos(phase));
    const double rate_mbps = base_mbps * congestion *
                             std::exp(rng.normal(0.0, cfg.noise_sigma));
    rates[i] = std::clamp(rate_mbps, 0.05, 400.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), cfg.segment_duration_s},
                     cfg.min_rtt_s};
}

WifiPathModel::WifiPathModel(WifiPathConfig config) : config_(config) {
  require(config_.good_rate_mbps > 0.0, "WifiPathModel: bad good rate");
  require(config_.degraded_fraction > 0.0 && config_.degraded_fraction < 1.0,
          "WifiPathModel: degraded fraction in (0,1)");
  require(config_.min_period_s > 0.0 &&
              config_.max_period_s >= config_.min_period_s,
          "WifiPathModel: bad oscillation period range");
  require(config_.duty_cycle > 0.0 && config_.duty_cycle < 1.0,
          "WifiPathModel: duty cycle in (0,1)");
}

NetworkPath WifiPathModel::sample_path(Rng& rng,
                                       const double duration_s) const {
  const auto& cfg = config_;
  const size_t n = segments_for(duration_s, cfg.segment_duration_s);

  // Per-path oscillation: period, phase, and how sharply the AP degrades.
  const double period_s = rng.uniform(cfg.min_period_s, cfg.max_period_s);
  const double phase_s = rng.uniform(0.0, period_s);
  const double good_mbps =
      cfg.good_rate_mbps * std::exp(rng.normal(0.0, 0.25));
  const double degraded_mbps = good_mbps * cfg.degraded_fraction;

  std::vector<double> rates(n);
  double fade_left_s = 0.0;
  const double dt = cfg.segment_duration_s;
  const double p_fade = 1.0 - std::exp(-cfg.fade_rate_hz * dt);
  for (size_t i = 0; i < n; i++) {
    const double t = phase_s + static_cast<double>(i) * dt;
    const double cycle_pos = t / period_s - std::floor(t / period_s);
    double rate_mbps = cycle_pos < cfg.duty_cycle ? good_mbps : degraded_mbps;

    if (fade_left_s <= 0.0 && rng.bernoulli(p_fade)) {
      fade_left_s = rng.exponential(1.0 / cfg.fade_mean_duration_s);
    }
    if (fade_left_s > 0.0) {
      rate_mbps = std::min(rate_mbps, cfg.fade_floor_mbps);
      fade_left_s -= dt;
    }

    rate_mbps *= std::exp(rng.normal(0.0, cfg.noise_sigma));
    rates[i] = std::clamp(rate_mbps, 0.02, 300.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), cfg.segment_duration_s},
                     cfg.min_rtt_s};
}

SatellitePathModel::SatellitePathModel(SatellitePathConfig config)
    : config_(config) {
  require(config_.median_rate_mbps > 0.0, "SatellitePathModel: bad rate");
  require(config_.min_rtt_s > 0.0, "SatellitePathModel: bad RTT");
  require(config_.rain_fade_attenuation > 0.0 &&
              config_.rain_fade_attenuation <= 1.0,
          "SatellitePathModel: attenuation in (0,1]");
}

NetworkPath SatellitePathModel::sample_path(Rng& rng,
                                            const double duration_s) const {
  const auto& cfg = config_;
  const size_t n = segments_for(duration_s, cfg.segment_duration_s);

  const double log10_base =
      std::log10(cfg.median_rate_mbps) + rng.normal(0.0, cfg.log10_rate_sigma);
  const double base_mbps = std::pow(10.0, log10_base);
  const double min_rtt = std::clamp(
      cfg.min_rtt_s * std::exp(rng.normal(0.0, cfg.rtt_jitter_sigma)),
      0.450, 0.900);

  std::vector<double> rates(n);
  double fade_left_s = 0.0;
  const double dt = cfg.segment_duration_s;
  const double p_rain_fade = 1.0 - std::exp(-cfg.rain_fade_rate_hz * dt);
  for (size_t i = 0; i < n; i++) {
    if (fade_left_s <= 0.0 && rng.bernoulli(p_rain_fade)) {
      fade_left_s = rng.exponential(1.0 / cfg.rain_fade_mean_duration_s);
    }
    double rate_mbps = base_mbps * std::exp(rng.normal(0.0, cfg.noise_sigma));
    if (fade_left_s > 0.0) {
      rate_mbps *= cfg.rain_fade_attenuation;
      fade_left_s -= dt;
    }
    rates[i] = std::clamp(rate_mbps, 0.05, 200.0) * kMbps;
  }

  return NetworkPath{ThroughputTrace{std::move(rates), cfg.segment_duration_s},
                     min_rtt};
}

}  // namespace puffer::net
