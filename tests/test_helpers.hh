#ifndef PUFFER_TESTS_TEST_HELPERS_HH
#define PUFFER_TESTS_TEST_HELPERS_HH

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <vector>

#include "abr/abr.hh"
#include "exp/trial.hh"
#include "fugu/dataset.hh"
#include "media/ladder.hh"
#include "media/vbr_source.hh"
#include "net/tcp_info.hh"
#include "stats/summary.hh"

namespace puffer::test {

/// A deterministic chunk menu whose rung sizes follow the nominal ladder
/// exactly and whose SSIM grows logarithmically — handy for controller tests
/// that need known numbers.
inline media::ChunkOptions make_menu(const int64_t index,
                                     const double size_scale = 1.0) {
  media::ChunkOptions menu;
  menu.chunk_index = index;
  for (int r = 0; r < media::kNumRungs; r++) {
    const auto& rung = media::default_ladder()[static_cast<size_t>(r)];
    media::ChunkVersion v;
    v.rung = r;
    v.size_bytes = static_cast<int64_t>(
        static_cast<double>(media::nominal_chunk_bytes(rung)) * size_scale);
    v.ssim_db = 12.9 + 2.41 * std::log(rung.nominal_bitrate_mbps);
    menu.versions[static_cast<size_t>(r)] = v;
  }
  return menu;
}

inline std::vector<media::ChunkOptions> make_lookahead(const int n,
                                                       const double scale = 1.0) {
  std::vector<media::ChunkOptions> lookahead;
  for (int i = 0; i < n; i++) {
    lookahead.push_back(make_menu(i, scale));
  }
  return lookahead;
}

/// Feed a predictor/ABR a history of identical transfers at a given
/// throughput (bytes/s).
inline abr::ChunkRecord record_at_throughput(const int64_t index,
                                             const double size_bytes,
                                             const double throughput_bps) {
  abr::ChunkRecord record;
  record.chunk_index = index;
  record.rung = 3;
  record.size_bytes = static_cast<int64_t>(size_bytes);
  record.ssim_db = 14.0;
  record.transmission_time_s = size_bytes / throughput_bps;
  return record;
}

/// Bitwise double equality: the trial executors promise *bit-identical*
/// results, stronger than operator== (which, e.g., treats -0.0 == 0.0).
inline void expect_same_bits(const double a, const double b) {
  EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b));
}

// Tripwires for expect_identical_trials: a new field in any of these structs
// breaks the build until the comparator below covers it.
static_assert(sizeof(stats::StreamFigures) == 8 * sizeof(double),
              "StreamFigures changed: update expect_identical_trials");
static_assert(sizeof(net::TcpInfo) == 5 * sizeof(double),
              "TcpInfo changed: update expect_identical_trials");
static_assert(sizeof(fugu::ChunkLog) ==
                  2 * sizeof(double) + sizeof(net::TcpInfo),
              "ChunkLog changed: update expect_identical_trials");

/// Every field of two trial results, doubles compared bit for bit: CONSORT
/// counts, each considered stream's figures, session durations, and each
/// telemetry log's day and chunks (size, transfer time and the TCP state the
/// TTP trains on).
inline void expect_identical_trials(const exp::TrialResult& a,
                                    const exp::TrialResult& b) {
  ASSERT_EQ(a.schemes.size(), b.schemes.size());
  for (size_t s = 0; s < a.schemes.size(); s++) {
    const exp::SchemeResult& x = a.schemes[s];
    const exp::SchemeResult& y = b.schemes[s];
    EXPECT_EQ(x.scheme, y.scheme);

    EXPECT_EQ(x.consort.sessions, y.consort.sessions);
    EXPECT_EQ(x.consort.streams, y.consort.streams);
    EXPECT_EQ(x.consort.never_began, y.consort.never_began);
    EXPECT_EQ(x.consort.under_min_watch, y.consort.under_min_watch);
    EXPECT_EQ(x.consort.decoder_failure, y.consort.decoder_failure);
    EXPECT_EQ(x.consort.truncated, y.consort.truncated);
    EXPECT_EQ(x.consort.considered, y.consort.considered);

    ASSERT_EQ(x.considered.size(), y.considered.size());
    for (size_t i = 0; i < x.considered.size(); i++) {
      const stats::StreamFigures& p = x.considered[i];
      const stats::StreamFigures& q = y.considered[i];
      expect_same_bits(p.watch_time_s, q.watch_time_s);
      expect_same_bits(p.stall_time_s, q.stall_time_s);
      expect_same_bits(p.startup_delay_s, q.startup_delay_s);
      expect_same_bits(p.ssim_mean_db, q.ssim_mean_db);
      expect_same_bits(p.ssim_variation_db, q.ssim_variation_db);
      expect_same_bits(p.first_chunk_ssim_db, q.first_chunk_ssim_db);
      expect_same_bits(p.mean_bitrate_mbps, q.mean_bitrate_mbps);
      expect_same_bits(p.mean_delivery_rate_mbps, q.mean_delivery_rate_mbps);
    }

    ASSERT_EQ(x.session_durations_s.size(), y.session_durations_s.size());
    for (size_t i = 0; i < x.session_durations_s.size(); i++) {
      expect_same_bits(x.session_durations_s[i], y.session_durations_s[i]);
    }

    ASSERT_EQ(x.logs.size(), y.logs.size());
    for (size_t i = 0; i < x.logs.size(); i++) {
      EXPECT_EQ(x.logs[i].day, y.logs[i].day);
      ASSERT_EQ(x.logs[i].chunks.size(), y.logs[i].chunks.size());
      for (size_t c = 0; c < x.logs[i].chunks.size(); c++) {
        const fugu::ChunkLog& p = x.logs[i].chunks[c];
        const fugu::ChunkLog& q = y.logs[i].chunks[c];
        expect_same_bits(p.size_mb, q.size_mb);
        expect_same_bits(p.tx_time_s, q.tx_time_s);
        expect_same_bits(p.tcp_at_send.cwnd_pkts, q.tcp_at_send.cwnd_pkts);
        expect_same_bits(p.tcp_at_send.in_flight_pkts,
                         q.tcp_at_send.in_flight_pkts);
        expect_same_bits(p.tcp_at_send.min_rtt_s, q.tcp_at_send.min_rtt_s);
        expect_same_bits(p.tcp_at_send.srtt_s, q.tcp_at_send.srtt_s);
        expect_same_bits(p.tcp_at_send.delivery_rate_bps,
                         q.tcp_at_send.delivery_rate_bps);
      }
    }
  }
}

}  // namespace puffer::test

#endif  // PUFFER_TESTS_TEST_HELPERS_HH
