#include "obs/prof.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "util/sync.hh"
#include "util/thread_annotations.hh"

namespace puffer::obs {

namespace {

// DETLINT-OK(global-state): the perf plane's runtime gate — read with
// relaxed loads on the hot path, flipped only by bench/test setup code
std::atomic<bool> enabled_{true};

/// Per-thread event log cap: past it the thread's wall lane saturates.
constexpr size_t kMaxEventsPerThread = 1 << 16;

struct RawEvent {
  const char* name = nullptr;
  int64_t start_ns = 0;  ///< relative to the registry epoch
  int64_t dur_ns = 0;
};

/// One thread's event log. Owned (and written) exclusively by that thread
/// while it lives; moved into the registry's retired list by the
/// thread_local destructor at thread exit, which is what makes
/// prof_export_trace() data-race-free without per-sample locking.
struct ThreadData {
  int ordinal = -1;
  int64_t epoch_ns = 0;
  std::vector<RawEvent> events;
};

struct Registry {
  Mutex mutex GUARDS(retired, next_ordinal, epoch_ns);
  std::vector<ThreadData> retired GUARDED_BY(mutex);
  int next_ordinal GUARDED_BY(mutex) = 0;
  int64_t epoch_ns GUARDED_BY(mutex) = -1;  ///< first registration's clock
};

int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// DETLINT-OK(global-state): the perf-plane thread registry — mutex-guarded,
// touched at thread birth/death and export time only, never by sim code
Registry& registry() {
  static Registry instance;
  return instance;
}

/// Registers on construction, retires the accumulated events on
/// destruction (i.e. at thread exit, before any joiner can observe the
/// thread as done).
struct ThreadSlot {
  ThreadData data;

  ThreadSlot() {
    Registry& reg = registry();
    const MutexLock lock{reg.mutex};
    data.ordinal = reg.next_ordinal++;
    if (reg.epoch_ns < 0) {
      reg.epoch_ns = now_ns();
    }
    data.epoch_ns = reg.epoch_ns;
  }

  ~ThreadSlot() {
    Registry& reg = registry();
    const MutexLock lock{reg.mutex};
    reg.retired.push_back(std::move(data));
  }
};

ThreadData& thread_data() {
  thread_local ThreadSlot slot;
  return slot.data;
}

}  // namespace

ProfScope::ProfScope(const char* const name)
    : name_(name),
      start_ns_(enabled_.load(std::memory_order_relaxed) ? now_ns() : -1) {}

ProfScope::~ProfScope() {
  if (start_ns_ < 0) {
    return;
  }
  const int64_t dur_ns = std::max<int64_t>(0, now_ns() - start_ns_);
  ThreadData& data = thread_data();
  if (data.events.size() < kMaxEventsPerThread) {
    data.events.push_back(RawEvent{name_, start_ns_ - data.epoch_ns, dur_ns});
  }
}

void set_prof_enabled(const bool enabled) {
  enabled_.store(enabled, std::memory_order_relaxed);
}

void prof_reset() {
  thread_data().events.clear();
  Registry& reg = registry();
  const MutexLock lock{reg.mutex};
  reg.retired.clear();
}

void prof_export_trace(TraceWriter& trace, const int pid) {
  // Register the calling thread first: thread_data() may take the registry
  // lock on first use.
  const ThreadData& own = thread_data();
  Registry& reg = registry();
  const MutexLock lock{reg.mutex};
  std::vector<const ThreadData*> threads;
  for (const ThreadData& thread : reg.retired) {
    threads.push_back(&thread);
  }
  threads.push_back(&own);
  std::erase_if(threads, [](const ThreadData* thread) {
    return thread->events.empty();
  });
  if (threads.empty()) {
    return;
  }
  std::sort(threads.begin(), threads.end(),
            [](const ThreadData* a, const ThreadData* b) {
              return a->ordinal < b->ordinal;
            });
  trace.process_name(pid, "wall time (perf)");
  for (const ThreadData* thread : threads) {
    trace.thread_name(pid, thread->ordinal,
                      "worker " + std::to_string(thread->ordinal));
    for (const RawEvent& event : thread->events) {
      trace.complete(pid, thread->ordinal, event.name,
                     static_cast<double>(event.start_ns) / 1000.0,
                     static_cast<double>(event.dur_ns) / 1000.0);
    }
  }
}

}  // namespace puffer::obs
