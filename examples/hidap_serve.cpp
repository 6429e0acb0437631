// hidap_serve: minimal multi-job placement server (ISSUE 6 tentpole,
// hardened in ISSUE 9). JSON-lines over stdin/stdout: one request per
// line, one event per line. One request = one PlacementJob through one
// shared PlacementSession, so concurrent jobs over the same design
// share the parsed netlist, analysis context, recursion plan and shape
// curves, and all jobs' SA work interleaves fairly on the one global
// thread pool (pool tasks are fine-grained, so neither job starves).
//
// Requests:
//   {"op":"place","id":"j1","verilog":"chip.v","out":"j1.def",
//    "seed":7,"lambda":0.5,"k":2.0,"halo":0.0,"effort":1.0,
//    "timeout_s":30,"fix":"pre.def","progress":true}
//   {"op":"cancel","id":"j1"}
//   {"op":"drain"}          (wait for every outstanding job)
//   {"op":"stats"}
//   {"op":"metrics"}        (process-global metric registry snapshot)
//   {"op":"quit"}           (EOF behaves like quit)
//
// Events:
//   {"event":"accepted","id":"j1"}
//   {"event":"progress","id":"j1","message":"..."}       (opt-in)
//   {"event":"done","id":"j1","status":"completed","seconds":...,
//    "macros":N,"def":"j1.def","design_cached":false,...,
//    "phase_curves_s":...,"phase_recursion_s":...,...}
//   {"event":"drained"}
//   {"event":"stats","active":1,"design_hits":...,"design_waits":...,
//    "jobs_completed":...,"jobs_cancelled":...,"jobs_shed":...,...}
//   {"event":"metrics","sa.moves_proposed":...,...}  (flat, dotted names)
//   {"event":"error","code":"invalid_request","message":"..."}
//   {"event":"bye"}
//
// Graceful degradation (ISSUE 9): every error event and failed done
// event carries a stable machine-readable "code" from the structured
// taxonomy (util/error.hpp). Requests longer than --max-line-bytes and
// netlists larger than --max-input-bytes are refused with typed errors
// instead of being attempted; admission control (--max-jobs) sheds
// place requests with code "resource_exhausted" once that many jobs are
// in flight, rather than spawning unboundedly. A job thread that throws
// ANY exception still produces a done event and the daemon keeps
// serving.
//
// Cancelled / deadline-expired jobs still report done with a valid
// partial-quality DEF; "status" tells them apart ("cancelled",
// "deadline_expired", "failed" -- failed jobs write no DEF).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "netlist/def_io.hpp"
#include "obs/metrics.hpp"
#include "runtime/thread_pool.hpp"
#include "service/json.hpp"
#include "service/placement_session.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

using namespace hidap;

namespace {

// Every event line is written whole under one lock so concurrent jobs'
// events never interleave mid-line.
std::mutex g_out_mutex;

void emit(const std::string& line) {
  std::lock_guard<std::mutex> lock(g_out_mutex);
  std::fputs(line.c_str(), stdout);
  std::fputc('\n', stdout);
  std::fflush(stdout);
}

void emit_error(ErrorCode code, const std::string& message, const std::string& id = {}) {
  JsonWriter w;
  w.str("event", "error");
  if (!id.empty()) w.str("id", id);
  w.str("code", to_string(code));
  w.str("message", message);
  emit(w.finish());
}

struct ServerLimits {
  std::size_t max_jobs = 32;                      ///< in-flight place jobs
  std::size_t max_line_bytes = 8u << 20;          ///< request line cap
  std::size_t max_input_bytes = 64u << 20;        ///< netlist source cap
};

struct Server {
  PlacementSession session;
  ServerLimits limits;
  std::mutex jobs_mutex;
  std::map<std::string, std::shared_ptr<JobControl>> active;  ///< cancellable jobs
  std::uint64_t jobs_shed = 0;                                ///< admission rejections

  // Worker threads are keyed by a monotonic sequence number. A worker
  // announces itself in `finished` as its last act; the request loop
  // reaps (joins) announced workers before admitting new jobs, so the
  // thread set stays bounded by the number of in-flight jobs instead of
  // growing until the next drain.
  std::map<std::uint64_t, std::thread> workers;
  std::vector<std::uint64_t> finished;
  std::uint64_t next_worker_seq = 0;

  void reap_finished_workers() {
    std::vector<std::uint64_t> done;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      done.swap(finished);
    }
    for (const std::uint64_t seq : done) {
      const auto it = workers.find(seq);
      if (it == workers.end()) continue;
      if (it->second.joinable()) it->second.join();
      workers.erase(it);
    }
  }

  void handle_place(const JsonObject& req) {
    const std::string id = json_string(req, "id");
    if (id.empty()) {
      emit_error(ErrorCode::InvalidRequest, "place needs a non-empty \"id\"");
      return;
    }
    PlacementJobSpec spec;
    spec.id = id;
    spec.verilog_path = json_string(req, "verilog");
    spec.verilog_text = json_string(req, "verilog_text");
    spec.fix_def_path = json_string(req, "fix");
    // Absent fields keep the spec's defaults.
    spec.seed = static_cast<std::uint64_t>(
        json_number(req, "seed", static_cast<double>(spec.seed)));
    spec.lambda = json_number(req, "lambda", spec.lambda);
    spec.k = json_number(req, "k", spec.k);
    spec.macro_halo = json_number(req, "halo", spec.macro_halo);
    spec.effort = json_number(req, "effort", spec.effort);
    spec.timeout_s = json_number(req, "timeout_s", spec.timeout_s);
    spec.max_input_bytes = limits.max_input_bytes;
    if (spec.verilog_path.empty() && spec.verilog_text.empty()) {
      emit_error(ErrorCode::InvalidRequest,
                 "place needs \"verilog\" (path) or \"verilog_text\"", id);
      return;
    }
    if (spec.verilog_text.size() > limits.max_input_bytes) {
      emit_error(ErrorCode::ResourceExhausted,
                 "inline verilog_text exceeds --max-input-bytes", id);
      return;
    }
    const std::string out_path = json_string(req, "out");
    spec.control = std::make_shared<JobControl>();
    if (json_bool(req, "progress")) {
      spec.progress = [id](const std::string& message) {
        emit(JsonWriter().str("event", "progress").str("id", id).str("message", message)
                 .finish());
      };
    }
    std::uint64_t worker_seq;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      if (active.count(id)) {
        emit_error(ErrorCode::InvalidRequest, "a job with this id is already running", id);
        return;
      }
      // Admission control: shed instead of spawning unboundedly. The
      // client retries after a done event frees a slot.
      if (active.size() >= limits.max_jobs) {
        ++jobs_shed;
        obs::default_registry().counter("serve.jobs_shed").add(1);
        emit_error(ErrorCode::ResourceExhausted,
                   "server at --max-jobs capacity; retry after a job finishes", id);
        return;
      }
      active[id] = spec.control;
      worker_seq = next_worker_seq++;
    }
    emit(JsonWriter().str("event", "accepted").str("id", id).finish());

    workers.emplace(worker_seq, std::thread([this, spec = std::move(spec), out_path,
                                             worker_seq]() {
      // Catch-all at the job-thread boundary: whatever the job throws
      // (std or not), the client gets a done event and the daemon keeps
      // serving. An escaped exception here would std::terminate the
      // whole server.
      try {
        run_job(spec, out_path);
      } catch (const std::exception& e) {
        finish_failed_job(spec.id, classify_exception(e), e.what());
      } catch (...) {
        finish_failed_job(spec.id, ErrorCode::Internal, "non-standard exception");
      }
      std::lock_guard<std::mutex> lock(jobs_mutex);
      finished.push_back(worker_seq);
    }));
  }

  // Emits the done event for a job that died outside session.run()'s
  // own never-throws contract (e.g. an injected serve.job fault).
  void finish_failed_job(const std::string& id, ErrorCode code,
                         const std::string& message) {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      active.erase(id);
    }
    emit(JsonWriter()
             .str("event", "done")
             .str("id", id)
             .str("status", to_string(JobStatus::Failed))
             .str("code", to_string(code))
             .str("message", message)
             .finish());
  }

  void run_job(const PlacementJobSpec& spec, const std::string& out_path) {
    HIDAP_FAILPOINT("serve.job");
    const JobOutcome outcome = session.run(spec);
    JsonWriter done;
    done.str("event", "done").str("id", spec.id);
    done.str("status", to_string(outcome.status));
    if (outcome.error_code != ErrorCode::Ok) {
      done.str("code", to_string(outcome.error_code));
    }
    done.num("seconds", outcome.seconds);
    if (outcome.status == JobStatus::Failed) {
      done.str("message", outcome.error);
    } else {
      done.num("macros", static_cast<std::uint64_t>(outcome.placement.macros.size()));
      done.boolean("design_cached", outcome.design_cached);
      done.boolean("context_cached", outcome.context_cached);
      done.boolean("curves_cached", outcome.curves_cached);
      done.boolean("plan_cached", outcome.plan_cached);
      const PhaseSeconds& phases = outcome.placement.phases;
      done.num("phase_curves_s", phases.curves_s);
      done.num("phase_recursion_s", phases.recursion_s);
      done.num("phase_flip_s", phases.flip_s);
      done.num("phase_legalize_s", phases.legalize_s);
      if (!out_path.empty()) {
        try {
          HIDAP_FAILPOINT("serve.write_def");
          write_def_file(*outcome.design, outcome.placement, out_path);
          done.str("def", out_path);
        } catch (const std::exception& e) {
          done.str("code", to_string(classify_exception(e)));
          done.str("message", std::string("placement ok, DEF write failed: ") + e.what());
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      active.erase(spec.id);
    }
    emit(done.finish());
  }

  void handle_cancel(const JsonObject& req) {
    const std::string id = json_string(req, "id");
    std::shared_ptr<JobControl> control;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      const auto it = active.find(id);
      if (it != active.end()) control = it->second;
    }
    if (control) {
      control->request_cancel();
      emit(JsonWriter().str("event", "cancelling").str("id", id).finish());
    } else {
      emit_error(ErrorCode::InvalidRequest, "no active job with this id", id);
    }
  }

  void handle_stats() {
    const ArtifactCache::Stats s = session.cache_stats();
    const PlacementSession::JobCounters jobs = session.job_counters();
    std::size_t active_count;
    std::uint64_t shed;
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      active_count = active.size();
      shed = jobs_shed;
    }
    emit(JsonWriter()
             .str("event", "stats")
             .num("active", static_cast<std::uint64_t>(active_count))
             .num("design_hits", s.design_hits)
             .num("design_misses", s.design_misses)
             .num("design_waits", s.design_waits)
             .num("context_hits", s.context_hits)
             .num("context_misses", s.context_misses)
             .num("context_waits", s.context_waits)
             .num("curve_hits", s.curve_hits)
             .num("curve_misses", s.curve_misses)
             .num("plan_hits", s.plan_hits)
             .num("plan_misses", s.plan_misses)
             .num("jobs_completed", jobs.completed)
             .num("jobs_cancelled", jobs.cancelled)
             .num("jobs_deadline_expired", jobs.deadline_expired)
             .num("jobs_failed", jobs.failed)
             .num("jobs_shed", shed)
             .finish());
  }

  // Point-in-time snapshot of the process-global metric registry as one
  // flat event (histograms exploded into name.count / name.sum / ...).
  void handle_metrics() {
    JsonWriter w;
    w.str("event", "metrics");
    for (const auto& [name, value] : obs::default_registry().flat_values()) {
      w.num(name, value);
    }
    emit(w.finish());
  }

  // Blocks until every outstanding job has reported done. Clients use
  // this to sequence batches (e.g. let a cold job donate its artifacts
  // before issuing the warm repeats). Only the request loop touches
  // `workers`, so no lock is needed.
  void handle_drain() {
    for (auto& [seq, t] : workers) {
      if (t.joinable()) t.join();
    }
    workers.clear();
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      finished.clear();
    }
    emit("{\"event\":\"drained\"}");
  }

  // Cancels whatever is still running and joins every worker.
  void shutdown() {
    {
      std::lock_guard<std::mutex> lock(jobs_mutex);
      for (auto& [id, control] : active) control->request_cancel();
    }
    for (auto& [seq, t] : workers) {
      if (t.joinable()) t.join();
    }
    workers.clear();
  }
};

[[noreturn]] void serve_usage() {
  std::fprintf(stderr,
               "usage: hidap_serve [--threads N] [--max-jobs N]\n"
               "                   [--max-line-bytes N] [--max-input-bytes N]\n"
               "  --threads N          worker lanes of the shared pool\n"
               "  --max-jobs N         in-flight place jobs before shedding with\n"
               "                       code \"resource_exhausted\" (default 32)\n"
               "  --max-line-bytes N   request lines longer than this are refused\n"
               "                       with \"invalid_request\" (default 8 MiB)\n"
               "  --max-input-bytes N  netlist sources larger than this fail with\n"
               "                       \"resource_exhausted\" (default 64 MiB)\n");
  std::exit(2);
}

long parse_positive_arg(const char* flag, const char* value) {
  char* end = nullptr;
  const long v = std::strtol(value, &end, 10);
  if (end == value || *end != '\0' || v <= 0) {
    std::fprintf(stderr, "hidap_serve: %s wants a positive integer, got '%s'\n", flag,
                 value);
    serve_usage();
  }
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  set_log_level(LogLevel::Warn);  // jobs report through their own sinks
  int threads = 0;
  ServerLimits limits;
  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) serve_usage();
      return argv[++i];
    };
    if (std::strcmp(argv[i], "--threads") == 0) {
      threads = static_cast<int>(parse_positive_arg("--threads", next()));
    } else if (std::strcmp(argv[i], "--max-jobs") == 0) {
      limits.max_jobs = static_cast<std::size_t>(parse_positive_arg("--max-jobs", next()));
    } else if (std::strcmp(argv[i], "--max-line-bytes") == 0) {
      limits.max_line_bytes =
          static_cast<std::size_t>(parse_positive_arg("--max-line-bytes", next()));
    } else if (std::strcmp(argv[i], "--max-input-bytes") == 0) {
      limits.max_input_bytes =
          static_cast<std::size_t>(parse_positive_arg("--max-input-bytes", next()));
    } else {
      serve_usage();
    }
  }
  if (threads > 0) ThreadPool::set_default_thread_count(threads);

  Server server;
  server.limits = limits;
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    server.reap_finished_workers();
    if (line.size() > limits.max_line_bytes) {
      emit_error(ErrorCode::InvalidRequest,
                 "request line of " + std::to_string(line.size()) +
                     " bytes exceeds --max-line-bytes");
      continue;
    }
    JsonObject req;
    std::string error;
    if (!parse_json_object(line, req, error)) {
      emit_error(ErrorCode::ParseError, "bad request: " + error);
      continue;
    }
    // Injectable request-handling fault: it throws into the catch below
    // (the point's code is invalid_request), which refuses this request
    // so one poisoned request can never take the daemon down.
    try {
      HIDAP_FAILPOINT("serve.request");
      const std::string op = json_string(req, "op");
      if (op == "place") server.handle_place(req);
      else if (op == "cancel") server.handle_cancel(req);
      else if (op == "drain") server.handle_drain();
      else if (op == "stats") server.handle_stats();
      else if (op == "metrics") server.handle_metrics();
      else if (op == "quit") break;
      else emit_error(ErrorCode::InvalidRequest, "unknown op \"" + op + "\"");
    } catch (const std::exception& e) {
      emit_error(classify_exception(e), e.what(), json_string(req, "id"));
    }
  }
  server.shutdown();
  emit("{\"event\":\"bye\"}");
  return 0;
}
