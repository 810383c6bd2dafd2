#ifndef PERFBENCH_DIGEST_HH
#define PERFBENCH_DIGEST_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "exp/campaign.hh"
#include "exp/trial.hh"

namespace perfbench {

/// FNV-1a over the exact bytes of a workload's outputs: two outputs with
/// equal digests agree bit for bit (up to hash collisions), so a digest
/// printed by one run can be compared with any other run of the same seed.
class Digest {
 public:
  void bytes(const void* data, size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < size; i++) {
      hash_ = (hash_ ^ p[i]) * 0x100000001b3ull;
    }
  }
  void u64(uint64_t v) { bytes(&v, sizeof v); }
  void i64(int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }

  [[nodiscard]] uint64_t value() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ull;
};

/// Per-scheme figures, CONSORT counts and session durations, in order.
[[nodiscard]] uint64_t digest_trial(const puffer::exp::TrialResult& trial);
/// Every field of every day's DayStats, for the printed cross-run note.
/// Within one process, DayStats are compared with their operator==, which
/// covers fields added later too.
[[nodiscard]] uint64_t digest_days(
    const std::vector<puffer::exp::DayStats>& days);

[[nodiscard]] std::string hex64(uint64_t value);

}  // namespace perfbench

#endif  // PERFBENCH_DIGEST_HH
