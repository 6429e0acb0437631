#pragma once
// Cooperative job control: the per-job handle threaded through every
// layer of the pipeline (annealer moves, shape-curve packing, the
// recursion scheduler, the flow sweeps).
//
// A JobControl carries three things:
//
//  * a sticky cancellation flag (request_cancel), checked with a relaxed
//    atomic load so the hot SA loops can poll it every move;
//  * a monotonic deadline (util/timer.hpp Deadline, steady_clock only),
//    published through one atomic so it can be armed or tightened while
//    the job is already running on pool threads;
//  * a per-job progress sink, replacing the process-global
//    mutex-serialized util/log progress channel for jobs: each job
//    streams its own status lines to its own consumer (the server turns
//    them into JSON events), so concurrent jobs never interleave.
//
// Cancellation is cooperative and monotonic: once should_stop() returns
// true it stays true (cancel is sticky, the deadline only recedes into
// the past), so every layer that observes the stop winds down with a
// cheap fallback and the layers above observe it too. An uncontrolled
// run (null JobControl pointer) never stops -- the pre-refactor
// behavior, bit for bit.

#include <atomic>
#include <cstdarg>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>

#include "util/timer.hpp"

namespace hidap {

/// Why a job stopped early; None while it is still allowed to run.
enum class JobStopReason : int { None = 0, Cancelled = 1, DeadlineExpired = 2 };

/// Terminal state of a job. Cancelled / DeadlineExpired runs still
/// return a valid (coarse, partial-quality) placement; Failed runs
/// carry an error instead of a result.
enum class JobStatus : int { Completed = 0, Cancelled = 1, DeadlineExpired = 2, Failed = 3 };

const char* to_string(JobStatus status);
JobStatus status_from_stop(JobStopReason reason);

class JobControl {
 public:
  using ProgressSink = std::function<void(const std::string&)>;

  JobControl() = default;
  JobControl(const JobControl&) = delete;
  JobControl& operator=(const JobControl&) = delete;

  /// Asks the job to stop at the next cooperative check. Sticky.
  void request_cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancel_requested() const { return cancelled_.load(std::memory_order_relaxed); }

  /// Arms (or replaces) the monotonic deadline; Deadline::never() disarms.
  void set_deadline(const Deadline& deadline) {
    deadline_ticks_.store(deadline.ticks(), std::memory_order_relaxed);
  }
  Deadline deadline() const {
    return Deadline::from_ticks(deadline_ticks_.load(std::memory_order_relaxed));
  }
  bool deadline_expired() const {
    const std::int64_t ticks = deadline_ticks_.load(std::memory_order_relaxed);
    return ticks != Deadline::kNeverTicks && Deadline::now_ticks() >= ticks;
  }

  /// The cooperative stop predicate polled by the SA loops and the
  /// recursion scheduler. Cheap when uncancelled and undeadlined.
  bool should_stop() const { return cancel_requested() || deadline_expired(); }

  /// Cancellation wins over the deadline when both hold, so the
  /// reported status is deterministic under races.
  JobStopReason stop_reason() const {
    if (cancel_requested()) return JobStopReason::Cancelled;
    if (deadline_expired()) return JobStopReason::DeadlineExpired;
    return JobStopReason::None;
  }

  /// Installs the per-job progress consumer (null drops all progress).
  /// May be swapped while the job runs; delivery is serialized.
  void set_progress_sink(ProgressSink sink);

  /// printf-style progress event. Serialized per control, so lines from
  /// concurrent pool tasks of the same job never interleave; different
  /// jobs use different controls and different sinks.
  void post_progress(const char* fmt, ...)
#if defined(__GNUC__)
      __attribute__((format(printf, 2, 3)))
#endif
      ;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<std::int64_t> deadline_ticks_{Deadline::kNeverTicks};
  std::mutex sink_mutex_;
  ProgressSink sink_;
};

}  // namespace hidap
