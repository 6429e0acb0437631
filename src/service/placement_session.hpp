#pragma once
// PlacementSession: the long-lived service object of the placement-as-a-
// service architecture (ISSUE 6 tentpole).
//
//   PlacementSession session;            // owns the ArtifactCache
//   PlacementJobSpec spec;               // one request = one job
//   spec.verilog_path = "chip.v";
//   spec.seed = 7;
//   spec.timeout_s = 30.0;
//   JobOutcome out = session.run(spec);  // blocking; thread-safe
//
// The session is the unit of sharing: repeated jobs over the same
// design reuse the parsed netlist, the analysis context (adjacency /
// hierarchy tree / Gseq), the declustering-driven recursion plan and
// the generated shape curves straight from the content-hash cache and
// skip to annealing. run() may be called concurrently from any number
// of threads -- jobs only share the immutable cached artifacts and the
// global thread pool.
//
// Per-job state (seed, preplaced macros, deadline, cancellation,
// progress) lives in the spec and its JobControl, never in the session,
// so concurrent jobs cannot observe each other.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

#include "core/hidap.hpp"
#include "service/artifact_cache.hpp"
#include "util/error.hpp"
#include "util/job_control.hpp"

namespace hidap {

/// One placement request. Exactly one of verilog_text / verilog_path
/// must be set (text wins when both are; neither fails the job with
/// ErrorCode::InvalidRequest).
struct PlacementJobSpec {
  std::string id;            ///< caller's handle, echoed in progress/outcome
  std::string verilog_text;  ///< netlist source, hashed as the design key
  std::string verilog_path;  ///< read once per job; contents are the key
  std::string fix_def_path;  ///< optional preplaced-macros DEF

  std::uint64_t seed = 1;
  double lambda = 0.5;
  double k = 2.0;
  double macro_halo = 0.0;
  double effort = 1.0;  ///< HiDaPOptions::scale_effort factor
  /// Every layout anneals one chain. A constant, not a setting: it
  /// stays only so callers that still read it (the perfbench pipeline)
  /// keep compiling.
  static constexpr int chains = 1;

  /// Wall-clock budget; <= 0 means no deadline. Armed on `control` (or
  /// an internal one) when the job starts.
  double timeout_s = 0.0;

  /// Hard cap on the netlist source size in bytes (text or file
  /// contents); 0 = unlimited. Oversized input fails the job with
  /// ErrorCode::ResourceExhausted before any parse work is spent.
  std::size_t max_input_bytes = 0;

  /// Optional externally-owned control: the server keeps it to route
  /// cancel requests into a running job. When null the session uses a
  /// job-local one (needed for timeout_s / progress).
  std::shared_ptr<JobControl> control;

  /// Optional per-job progress consumer, installed on the control for
  /// the duration of the run.
  JobControl::ProgressSink progress;
};

/// What one job produced. Cancelled / DeadlineExpired outcomes still
/// carry a valid partial-quality placement; Failed carries `error`.
struct JobOutcome {
  JobStatus status = JobStatus::Failed;
  std::string error;
  /// Machine-readable failure category (util/error.hpp). Ok for
  /// completed jobs; Cancelled / DeadlineExpired for stopped jobs.
  ErrorCode error_code = ErrorCode::Ok;
  std::shared_ptr<const Design> design;  ///< for DEF/metrics output
  PlacementResult placement;  ///< placement.phases: this job's step walls
  double seconds = 0.0;  ///< this job's wall time inside run()

  /// Which artifacts came out of the cache (all false on a cold run).
  bool design_cached = false;
  bool context_cached = false;
  bool curves_cached = false;
  bool plan_cached = false;
};

class PlacementSession {
 public:
  /// `base` is the shared algorithm configuration; per-spec fields
  /// (lambda, k, halo, seed, effort) are stamped over a copy
  /// per job. base.job is ignored -- job state comes from the spec.
  explicit PlacementSession(HiDaPOptions base = {});

  /// Runs one job to completion (or cancellation/deadline/failure).
  /// Never throws: failures are reported as JobStatus::Failed.
  JobOutcome run(const PlacementJobSpec& spec);

  /// Lifetime totals of jobs this session finished, by terminal status.
  /// Mirrored into the process registry as the jobs.* counters.
  struct JobCounters {
    std::uint64_t completed = 0;
    std::uint64_t cancelled = 0;
    std::uint64_t deadline_expired = 0;
    std::uint64_t failed = 0;
  };
  JobCounters job_counters() const;

  ArtifactCache::Stats cache_stats() const { return cache_.stats(); }
  const HiDaPOptions& base_options() const { return base_; }

 private:
  HiDaPOptions base_;
  ArtifactCache cache_;
  std::atomic<std::uint64_t> jobs_completed_{0};
  std::atomic<std::uint64_t> jobs_cancelled_{0};
  std::atomic<std::uint64_t> jobs_deadline_expired_{0};
  std::atomic<std::uint64_t> jobs_failed_{0};
};

}  // namespace hidap
