#pragma once
// The monotonic Deadline used by every timeout check in the library.
// It is built on steady_clock -- never the wall clock -- so NTP steps
// or suspend/resume cannot fire (or mask) a timeout. Phase walls, flow
// "effort" (paper Table II) included, are timed by obs::Phase
// (obs/trace.hpp).

#include <chrono>
#include <cstdint>
#include <limits>

namespace hidap {

/// A monotonic point in time, transportable as a single int64 (steady
/// clock nanoseconds) so JobControl can publish it through one atomic.
/// Default-constructed deadlines never expire.
class Deadline {
 public:
  /// Sentinel tick value for "no deadline".
  static constexpr std::int64_t kNeverTicks = std::numeric_limits<std::int64_t>::max();

  Deadline() = default;

  static Deadline never() { return Deadline(); }

  /// Expires `seconds` from now on the steady clock. Non-positive
  /// values produce an already-expired deadline.
  static Deadline after_seconds(double seconds) {
    const double ns = seconds * 1e9;
    // Saturate far-future requests into "never" instead of overflowing.
    if (ns >= static_cast<double>(kNeverTicks - now_ticks())) return never();
    return from_ticks(now_ticks() + static_cast<std::int64_t>(ns));
  }

  /// Rebuilds a deadline from ticks() (e.g. read back out of an atomic).
  static Deadline from_ticks(std::int64_t ticks) {
    Deadline d;
    d.ticks_ = ticks;
    return d;
  }

  bool is_never() const { return ticks_ == kNeverTicks; }

  bool expired() const { return !is_never() && now_ticks() >= ticks_; }

  /// Seconds until expiry; negative once expired, +infinity for never().
  double remaining_seconds() const {
    if (is_never()) return std::numeric_limits<double>::infinity();
    return static_cast<double>(ticks_ - now_ticks()) * 1e-9;
  }

  std::int64_t ticks() const { return ticks_; }

  /// Steady-clock now, in the tick unit used by this class (ns).
  static std::int64_t now_ticks() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  std::int64_t ticks_ = kNeverTicks;
};

}  // namespace hidap
