#include "service/placement_session.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/env.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/retry.hpp"

namespace hidap {

namespace {

std::string slurp_file(const std::string& path) {
  HIDAP_FAILPOINT("session.read_input");
  std::ifstream in(path, std::ios::binary);
  if (!in) throw HidapError(ErrorCode::IoError, "cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  if (in.bad()) throw HidapError(ErrorCode::IoError, "read failed: " + path);
  return buf.str();
}

// File-backed requests retry transient IoErrors with exponential
// backoff (attempts / first backoff from HIDAP_IO_RETRIES and
// HIDAP_IO_BACKOFF_MS); parse errors are never retried.
RetryPolicy io_retry_policy() {
  RetryPolicy policy;
  policy.attempts = static_cast<int>(env_long("HIDAP_IO_RETRIES", 3, 1, 16));
  policy.backoff_ms = static_cast<int>(env_long("HIDAP_IO_BACKOFF_MS", 10, 0, 60000));
  return policy;
}

}  // namespace

PlacementSession::PlacementSession(HiDaPOptions base) : base_(std::move(base)) {
  base_.job = JobState{};  // job state always comes from the spec
}

JobOutcome PlacementSession::run(const PlacementJobSpec& spec) {
  JobOutcome outcome;
  const obs::Phase job("job", "service");

  // The control outlives every pool task of this job; job-local unless
  // the caller provided one to cancel through.
  std::shared_ptr<JobControl> control = spec.control;
  if (!control) control = std::make_shared<JobControl>();
  if (spec.progress) control->set_progress_sink(spec.progress);
  if (spec.timeout_s > 0.0) {
    control->set_deadline(Deadline::after_seconds(spec.timeout_s));
  }

  try {
    HIDAP_FAILPOINT("session.run");
    // --- Design: content-hashed text, single-flight parse. File reads
    // retry transient I/O failures with bounded backoff. ---
    // A spec without a netlist is the caller's mistake, not a transient
    // read failure: reject it before the retried read of "" can start.
    if (spec.verilog_text.empty() && spec.verilog_path.empty()) {
      throw HidapError(ErrorCode::InvalidRequest,
                       "job names no netlist (need verilog_text or verilog_path)");
    }
    const RetryPolicy retry = io_retry_policy();
    std::string slurped;
    if (spec.verilog_text.empty()) {
      slurped = with_retries(retry, [&spec]() { return slurp_file(spec.verilog_path); });
    }
    const std::string_view text = spec.verilog_text.empty() ? slurped : spec.verilog_text;
    if (spec.max_input_bytes > 0 && text.size() > spec.max_input_bytes) {
      throw HidapError(ErrorCode::ResourceExhausted,
                       "netlist input of " + std::to_string(text.size()) +
                           " bytes exceeds the job limit of " +
                           std::to_string(spec.max_input_bytes) + " bytes");
    }
    const std::uint64_t design_key = ArtifactCache::design_key(text);
    outcome.design = cache_.design(
        design_key, [&text]() { return parse_verilog_string(text); },
        &outcome.design_cached);
    const Design& design = *outcome.design;

    // --- Per-job options over the shared base. ---
    HiDaPOptions options = base_;
    options.lambda = spec.lambda;
    options.k = spec.k;
    options.macro_halo = spec.macro_halo;
    options.scale_effort(spec.effort);
    options.job.seed = spec.seed;
    options.job.control = control.get();
    if (!spec.fix_def_path.empty()) {
      const DefContents fixed =
          with_retries(retry, [&spec]() { return parse_def_file(spec.fix_def_path); });
      PlacementResult pre;
      apply_def_placement(design, fixed, pre);
      options.job.preplaced = std::move(pre.macros);
    }

    // --- Context: analysis shared across seeds/lambdas/jobs. ---
    const std::uint64_t context_key = ArtifactCache::context_key(design_key, options.seq);
    const std::shared_ptr<const PlacementContext> context = cache_.context(
        context_key,
        [&design, &options]() { return PlacementContext(design, options.seq); },
        &outcome.context_cached);

    // --- Cached precomputes; whatever misses is computed by this run. ---
    const std::uint64_t curves_key = ArtifactCache::curves_key(
        context_key, spec.seed, options.macro_halo, options.shape_fp);
    const std::uint64_t plan_key = ArtifactCache::plan_key(
        context_key, options.min_area_frac, options.open_area_frac,
        options.job.preplaced);
    PlacementArtifacts artifacts;
    artifacts.shape_curves = cache_.find_curves(curves_key);
    artifacts.recursion_plan = cache_.find_plan(plan_key);
    const bool curves_were_cached = artifacts.shape_curves != nullptr;
    const bool plan_was_cached = artifacts.recursion_plan != nullptr;

    control->post_progress("job %s: design=%016llx curves=%s plan=%s", spec.id.c_str(),
                           static_cast<unsigned long long>(design_key),
                           curves_were_cached ? "hit" : "miss",
                           plan_was_cached ? "hit" : "miss");

    outcome.placement = place_macros(design, *context, options, &artifacts);
    outcome.status = outcome.placement.status;
    if (outcome.status == JobStatus::Cancelled) {
      outcome.error_code = ErrorCode::Cancelled;
    } else if (outcome.status == JobStatus::DeadlineExpired) {
      outcome.error_code = ErrorCode::DeadlineExpired;
    }

    // Donate this run's precomputes -- only from a completed run; a
    // stopped run's curves are partial-quality and must never serve a
    // future hit (place_macros also refuses to export them). A failed
    // donation (e.g. an injected cache.donate fault) degrades to a
    // recompute on the next job; it never fails THIS completed job.
    if (outcome.status == JobStatus::Completed) {
      try {
        if (!curves_were_cached) cache_.store_curves(curves_key, artifacts.shape_curves);
        if (!plan_was_cached) cache_.store_plan(plan_key, artifacts.recursion_plan);
      } catch (const std::exception& e) {
        HIDAP_LOG_WARN("job %s: artifact donation failed (kept result): %s",
                       spec.id.c_str(), e.what());
      }
    }

    outcome.curves_cached = curves_were_cached;
    outcome.plan_cached = plan_was_cached;
  } catch (const std::exception& e) {
    outcome.status = JobStatus::Failed;
    outcome.error = e.what();
    outcome.error_code = classify_exception(e);
    control->post_progress("job %s failed [%s]: %s", spec.id.c_str(),
                           to_string(outcome.error_code), e.what());
  } catch (...) {
    // Non-std exceptions stay inside the taxonomy too: run() promises
    // to never throw, whatever the layers below do.
    outcome.status = JobStatus::Failed;
    outcome.error = "unknown non-standard exception";
    outcome.error_code = ErrorCode::Internal;
    control->post_progress("job %s failed [internal]: non-standard exception",
                           spec.id.c_str());
  }

  // Detach the job-scoped sink so a caller-owned control cannot reach
  // this spec's consumer after run() returns.
  if (spec.progress) control->set_progress_sink(nullptr);

  // Terminal-status tallies: session-local (served through job_counters()
  // and the serve `stats` verb) and process-global (jobs.* counters).
  const auto finish = [this](std::atomic<std::uint64_t>& local, const char* name) {
    local.fetch_add(1, std::memory_order_relaxed);
    obs::default_registry().counter(name).add(1);
  };
  switch (outcome.status) {
    case JobStatus::Completed: finish(jobs_completed_, "jobs.completed"); break;
    case JobStatus::Cancelled: finish(jobs_cancelled_, "jobs.cancelled"); break;
    case JobStatus::DeadlineExpired:
      finish(jobs_deadline_expired_, "jobs.deadline_expired");
      break;
    case JobStatus::Failed: finish(jobs_failed_, "jobs.failed"); break;
  }

  outcome.seconds = job.seconds();
  return outcome;
}

PlacementSession::JobCounters PlacementSession::job_counters() const {
  JobCounters counters;
  counters.completed = jobs_completed_.load(std::memory_order_relaxed);
  counters.cancelled = jobs_cancelled_.load(std::memory_order_relaxed);
  counters.deadline_expired = jobs_deadline_expired_.load(std::memory_order_relaxed);
  counters.failed = jobs_failed_.load(std::memory_order_relaxed);
  return counters;
}

}  // namespace hidap
