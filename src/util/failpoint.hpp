#pragma once
// Fail-point injection framework (ISSUE 9 tentpole).
//
// A fail point is a named site in a real failure path (a parse, a cache
// fill, a pool dispatch, a request handler) that tests and operators can
// arm to fire deliberately. Disarmed -- the only state production ever
// sees -- a site costs one relaxed atomic load plus a branch (gated by
// bench_micro's BM_FailpointDisarmed, same bar as BM_ObsSpanDisabled).
// Armed, it fires with a mode and an optional one-shot trigger:
//
//   mode:    throw            throw HidapError(point's default code)
//            throw(CODE)      override the code (e.g. throw(io_error))
//            delay(MS)        sleep MS milliseconds, then continue
//   trigger: (none)           every evaluation fires
//            @once            first evaluation only, then self-disarms
//
// Arming is programmatic (failpoints::arm("cache.design_parse",
// "throw@once")) or environmental:
//
//   HIDAP_FAILPOINTS=cache.design_parse:throw@once,pool.task:delay(50)
//
// parsed once at first registry use. Every registered point has a
// default ErrorCode declared in the site table (failpoint.cpp) so a
// plain `throw` surfaces the code the real failure at that site would.
// Fire counts are kept per point and mirrored to the obs registry as
// faults.fired, so sweeps can assert a point actually triggered.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace hidap {

/// One named injection site. Sites hold a reference obtained once (the
/// HIDAP_FAILPOINT macros cache it in a function-local static), so the
/// hot path never touches the registry.
class FailPoint {
 public:
  enum class Mode : int { Throw = 0, Delay = 1 };

  FailPoint(std::string name, ErrorCode default_code)
      : name_(std::move(name)), default_code_(default_code) {}
  FailPoint(const FailPoint&) = delete;
  FailPoint& operator=(const FailPoint&) = delete;

  const std::string& name() const { return name_; }
  ErrorCode default_code() const { return default_code_; }

  /// The disarmed fast path: one relaxed load.
  bool armed() const { return armed_.load(std::memory_order_relaxed); }

  /// Slow path, called only when armed. On fire, Throw raises
  /// HidapError and Delay sleeps, then returns; a @once point disarms
  /// itself on its first fire.
  void fire();

  /// Arms from a spec string ("throw", "delay(50)@once", ...). Returns
  /// false (and leaves the point disarmed) on a malformed spec, with
  /// the reason in `error` when non-null.
  bool arm(const std::string& spec, std::string* error = nullptr);
  void disarm() { armed_.store(false, std::memory_order_relaxed); }

  /// Times this point actually fired.
  std::uint64_t fire_count() const { return fires_.load(std::memory_order_relaxed); }
  void reset_counts() { fires_.store(0, std::memory_order_relaxed); }

 private:
  const std::string name_;
  const ErrorCode default_code_;
  std::atomic<bool> armed_{false};

  // Configuration, written under mutex_ by arm() and read under mutex_
  // by fire(); armed_ is flipped last so a racing fast path that slips
  // through sees a fully-written config.
  mutable std::mutex mutex_;
  Mode mode_ = Mode::Throw;
  bool once_ = false;
  ErrorCode code_ = ErrorCode::Internal;
  int delay_ms_ = 0;

  std::atomic<std::uint64_t> fires_{0};
};

/// Process-global registry. The full site table is declared statically
/// in failpoint.cpp, so all_points() is complete before any site has
/// executed -- sweep tests enumerate it to arm every point in turn.
class FailPointRegistry {
 public:
  /// Created on first use; parses HIDAP_FAILPOINTS once.
  static FailPointRegistry& instance();

  /// The point for `name`; creates an unlisted point (default code
  /// Internal) for names outside the static table, so ad-hoc test
  /// points work too. The returned reference is stable forever.
  FailPoint& point(const std::string& name);

  /// Every registered point, static table first, in table order.
  std::vector<FailPoint*> all_points();

  /// Arms `name` with `spec`; false + `error` on malformed spec.
  bool arm(const std::string& name, const std::string& spec,
           std::string* error = nullptr);
  void disarm(const std::string& name);
  void disarm_all();

  /// Parses a full HIDAP_FAILPOINTS-style list ("a:throw,b:delay(5)").
  /// Malformed entries are skipped with a warning; returns the number
  /// of points armed.
  int arm_from_spec_list(const std::string& list);

 private:
  FailPointRegistry();
  std::mutex mutex_;
  std::vector<std::unique_ptr<FailPoint>> points_;
};

namespace failpoints {
/// Convenience wrappers over FailPointRegistry::instance().
inline bool arm(const std::string& name, const std::string& spec,
                std::string* error = nullptr) {
  return FailPointRegistry::instance().arm(name, spec, error);
}
inline void disarm(const std::string& name) {
  FailPointRegistry::instance().disarm(name);
}
inline void disarm_all() { FailPointRegistry::instance().disarm_all(); }
inline std::uint64_t fire_count(const std::string& name) {
  return FailPointRegistry::instance().point(name).fire_count();
}
}  // namespace failpoints

}  // namespace hidap

// HIDAP_FAILPOINT(name): the site macro. It caches its FailPoint
// reference in a function-local static, so after the first pass the
// disarmed cost is the static-init guard check plus one relaxed load.
#define HIDAP_FAILPOINT(name)                               \
  do {                                                      \
    static ::hidap::FailPoint& hidap_fp_ =                  \
        ::hidap::FailPointRegistry::instance().point(name); \
    if (hidap_fp_.armed()) hidap_fp_.fire();                \
  } while (false)
