#ifndef PUFFER_OBS_PROF_HH
#define PUFFER_OBS_PROF_HH

#include <cstdint>

#include "obs/trace.hh"

// Plane-2 (perf-plane) profiling: RAII wall-clock scopes appending to a
// bounded per-thread event log, which prof_export_trace() renders as the
// wall-time lanes of a Chrome trace. This is the ONE place the tree is
// allowed to read a clock (detlint R1 allowlists src/obs/prof.* only):
// call sites construct `obs::ProfScope scope{"name"};` and never see a time
// source, so nondeterminism stays structurally contained — nothing in the
// sim plane, results, or bitwise audits can observe it.

namespace puffer::obs {

/// Scopes are always compiled; set_prof_enabled(false) skips the clock
/// reads at runtime.
inline constexpr bool kProfilingCompiled = true;

/// Times the enclosing scope on the calling thread. `name` must be a
/// string literal (or otherwise outlive every export call).
class ProfScope {
 public:
  explicit ProfScope(const char* name);
  ~ProfScope();
  ProfScope(const ProfScope&) = delete;
  ProfScope& operator=(const ProfScope&) = delete;

 private:
  const char* name_;
  int64_t start_ns_;  ///< -1 when profiling was disabled at entry
};

/// Runtime gate (on by default). Disabling skips the clock reads; events
/// already recorded stay until prof_reset().
void set_prof_enabled(bool enabled);

/// Drop retired-thread events and the calling thread's events (other live
/// threads keep theirs). Call before the section the lanes should cover.
void prof_reset();

/// Emit wall-time lanes (pid `pid`, one tid per thread ordinal) into
/// `trace`: the events of every *retired* worker thread plus the calling
/// thread. Live sibling threads are invisible until they exit (their log is
/// thread-confined — that is what makes this data-race-free); the fleet
/// engine joins its pools before returning, so post-run exports see all
/// workers. Nondeterministic by nature — lanes land in ordinal order but
/// their content is wall-clock truth.
void prof_export_trace(TraceWriter& trace, int pid = kWallTracePid);

}  // namespace puffer::obs

#endif  // PUFFER_OBS_PROF_HH
