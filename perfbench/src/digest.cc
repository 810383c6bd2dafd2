#include "digest.hh"

#include <cstdio>

namespace perfbench {

std::string hex64(const uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// digest_trial lists these structs' fields by hand, and the trial workloads
// compare runs by digest: a new field must break the build until it is
// listed below.
static_assert(sizeof(puffer::stats::StreamFigures) == 8 * sizeof(double),
              "digest_trial: hash the new StreamFigures field");
static_assert(sizeof(puffer::exp::ConsortCounts) == 7 * sizeof(int64_t),
              "digest_trial: hash the new ConsortCounts field");

uint64_t digest_trial(const puffer::exp::TrialResult& trial) {
  Digest d;
  for (const auto& scheme : trial.schemes) {
    d.str(scheme.scheme);
    const auto& c = scheme.consort;
    for (const int64_t v : {c.sessions, c.streams, c.never_began,
                            c.under_min_watch, c.decoder_failure, c.truncated,
                            c.considered}) {
      d.i64(v);
    }
    d.u64(scheme.considered.size());
    for (const auto& f : scheme.considered) {
      for (const double v :
           {f.watch_time_s, f.stall_time_s, f.startup_delay_s, f.ssim_mean_db,
            f.ssim_variation_db, f.first_chunk_ssim_db, f.mean_bitrate_mbps,
            f.mean_delivery_rate_mbps}) {
        d.f64(v);
      }
    }
    d.u64(scheme.session_durations_s.size());
    for (const double v : scheme.session_durations_s) {
      d.f64(v);
    }
  }
  return d.value();
}

uint64_t digest_days(const std::vector<puffer::exp::DayStats>& days) {
  Digest d;
  for (const auto& day : days) {
    d.i64(day.day);
    d.str(day.scenario);
    for (const uint64_t v : {day.telemetry_streams, day.telemetry_chunks,
                             day.telemetry_lost, day.telemetry_duplicated}) {
      d.u64(v);
    }
    d.u64(day.degraded ? 1 : 0);
    for (const auto& arm : day.arms) {
      d.str(arm.arm);
      d.str(arm.scheme);
      d.i64(arm.sessions);
      d.i64(arm.considered);
      for (const double v : {arm.ssim_mean_db, arm.stall_ratio,
                             arm.startup_delay_s, arm.cross_entropy,
                             arm.top1_accuracy, arm.retrain_backoff_s}) {
        d.f64(v);
      }
      d.u64(arm.has_model ? 1 : 0);
      d.u64(arm.holdout_examples);
      d.i64(arm.retrain_crashes);
      d.u64(arm.degraded ? 1 : 0);
    }
  }
  return d.value();
}

}  // namespace perfbench
