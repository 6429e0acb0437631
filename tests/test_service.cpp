// Placement-service tests: content-hash artifact cache hit/miss and
// byte-identity (a warm job must reproduce the cold job's DEF exactly
// while skipping parsing and planning), cooperative cancellation at
// every recursion depth with prompt wind-down and valid partial
// results, deadlines, concurrent jobs through one session, and the
// flat JSON line protocol.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "force_pool_lanes.hpp"
#include "gen/suite.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_writer.hpp"
#include "service/json.hpp"
#include "obs/metrics.hpp"
#include "service/placement_session.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

// 8-lane pool (or HIDAP_THREADS) so concurrent jobs genuinely contend
// for the shared pool; see force_pool_lanes.hpp.
const int kForcedPoolLanes = test_support::force_pool_lanes();

// Sanitizers slow the wind-down path by an order of magnitude; the
// promptness budget is about the product, not the instrumentation.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define HIDAP_TEST_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define HIDAP_TEST_SANITIZED 1
#endif
#endif
#if defined(HIDAP_TEST_SANITIZED)
constexpr double kStopBudgetSeconds = 2.0;
#else
constexpr double kStopBudgetSeconds = 0.1;  // the ISSUE's <100 ms bound
#endif

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

// Shared fixture: one generated circuit serialized to Verilog text, so
// every job goes through the real parse-or-cache path.
class ServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Warn);
    const Design design = generate_circuit(fig1_spec());
    std::ostringstream verilog;
    write_verilog(design, verilog);
    verilog_ = new std::string(verilog.str());
  }
  static void TearDownTestSuite() {
    delete verilog_;
    verilog_ = nullptr;
  }

  // Fast-anneal base so the suite stays quick; mirrors the other
  // end-to-end suites' quick_options.
  static HiDaPOptions quick_base() {
    HiDaPOptions o;
    o.layout_anneal.moves_per_temperature = 80;
    o.layout_anneal.cooling = 0.8;
    o.layout_anneal.max_stagnant_temperatures = 4;
    o.shape_fp.anneal.moves_per_temperature = 60;
    o.shape_fp.anneal.cooling = 0.8;
    o.shape_fp.anneal.max_stagnant_temperatures = 4;
    return o;
  }

  static PlacementJobSpec quick_spec(const std::string& id, std::uint64_t seed = 1) {
    PlacementJobSpec spec;
    spec.id = id;
    spec.verilog_text = *verilog_;
    spec.seed = seed;
    return spec;
  }

  static std::string def_bytes(const JobOutcome& outcome) {
    std::ostringstream out;
    write_def(*outcome.design, outcome.placement, out);
    return out.str();
  }

  static void expect_valid(const JobOutcome& outcome) {
    ASSERT_TRUE(outcome.design != nullptr);
    const Rect die{0, 0, outcome.design->die().w, outcome.design->die().h};
    const PlacementCheck check =
        check_placement(*outcome.design, outcome.placement, die);
    EXPECT_TRUE(check.all_macros_placed);
    EXPECT_TRUE(check.all_inside_die);
  }

  static std::string* verilog_;
};

std::string* ServiceTest::verilog_ = nullptr;

TEST_F(ServiceTest, ColdThenWarmJobsAreByteIdenticalAndSkipPrecomputes) {
  PlacementSession session(quick_base());
  const JobOutcome cold = session.run(quick_spec("cold", 3));
  ASSERT_EQ(cold.status, JobStatus::Completed) << cold.error;
  EXPECT_FALSE(cold.design_cached);
  EXPECT_FALSE(cold.context_cached);
  EXPECT_FALSE(cold.curves_cached);
  EXPECT_FALSE(cold.plan_cached);
  expect_valid(cold);

  const JobOutcome warm = session.run(quick_spec("warm", 3));
  ASSERT_EQ(warm.status, JobStatus::Completed) << warm.error;
  EXPECT_TRUE(warm.design_cached);
  EXPECT_TRUE(warm.context_cached);
  EXPECT_TRUE(warm.curves_cached);
  EXPECT_TRUE(warm.plan_cached);
  EXPECT_EQ(warm.design.get(), cold.design.get());  // literally the same object
  EXPECT_EQ(def_bytes(cold), def_bytes(warm));

  const ArtifactCache::Stats stats = session.cache_stats();
  EXPECT_EQ(stats.design_misses, 1u);
  EXPECT_EQ(stats.design_hits, 1u);
  EXPECT_EQ(stats.curve_misses, 1u);
  EXPECT_EQ(stats.curve_hits, 1u);
  EXPECT_EQ(stats.plan_misses, 1u);
  EXPECT_EQ(stats.plan_hits, 1u);
}

TEST_F(ServiceTest, WarmRepeatReportsNoCurvesPhase) {
  // A cold job times curve generation and the recursion separately; a
  // warm repeat adopts the cached curves, so only the recursion runs.
  PlacementSession session(quick_base());
  const JobOutcome cold = session.run(quick_spec("cold", 4));
  ASSERT_EQ(cold.status, JobStatus::Completed) << cold.error;
  EXPECT_GT(cold.placement.phases.curves_s, 0.0);
  EXPECT_GT(cold.placement.phases.recursion_s, 0.0);

  const JobOutcome warm = session.run(quick_spec("warm", 4));
  ASSERT_EQ(warm.status, JobStatus::Completed) << warm.error;
  ASSERT_TRUE(warm.curves_cached);
  EXPECT_EQ(warm.placement.phases.curves_s, 0.0);
  EXPECT_GT(warm.placement.phases.recursion_s, 0.0);
}

TEST_F(ServiceTest, CachedJobMatchesDirectPlacement) {
  // Adopting cached curves/plan must equal recomputing them: the warm
  // session DEF is byte-identical to a bare place_macros with the same
  // options and no cache at all.
  PlacementSession session(quick_base());
  session.run(quick_spec("warm-up", 5));
  const JobOutcome warm = session.run(quick_spec("measured", 5));
  ASSERT_EQ(warm.status, JobStatus::Completed) << warm.error;
  ASSERT_TRUE(warm.curves_cached && warm.plan_cached);

  HiDaPOptions direct = quick_base();
  direct.scale_effort(1.0);  // mirror the session's per-job stamping
  direct.job.seed = 5;
  const PlacementContext context(*warm.design, direct.seq);
  const PlacementResult reference = place_macros(*warm.design, context, direct);
  std::ostringstream ref_def;
  write_def(*warm.design, reference, ref_def);
  EXPECT_EQ(ref_def.str(), def_bytes(warm));
}

TEST_F(ServiceTest, SeedChangesCurveKeyButNotDesignKey) {
  PlacementSession session(quick_base());
  session.run(quick_spec("a", 1));
  const JobOutcome other = session.run(quick_spec("b", 2));
  ASSERT_EQ(other.status, JobStatus::Completed) << other.error;
  EXPECT_TRUE(other.design_cached);   // same text
  EXPECT_TRUE(other.context_cached);  // same extraction options
  EXPECT_FALSE(other.curves_cached);  // curves are seeded
  EXPECT_TRUE(other.plan_cached);     // the plan is not
}

TEST_F(ServiceTest, PreCancelledJobReturnsPromptlyAndValid) {
  PlacementSession session(quick_base());
  PlacementJobSpec spec = quick_spec("pre-cancelled");
  spec.control = std::make_shared<JobControl>();
  spec.control->request_cancel();
  const auto start = std::chrono::steady_clock::now();
  const JobOutcome outcome = session.run(spec);
  EXPECT_LT(seconds_since(start), kStopBudgetSeconds + 1.0);  // parse+context still run
  EXPECT_EQ(outcome.status, JobStatus::Cancelled);
  expect_valid(outcome);
}

TEST_F(ServiceTest, MidAnnealCancelReturnsWithinBudget) {
  PlacementSession session(quick_base());
  // Warm the parse/context so the measured window is pure placement.
  session.run(quick_spec("warm-up"));

  PlacementJobSpec spec = quick_spec("cancelled");
  spec.seed = 99;  // cold curves: the job really anneals
  spec.control = std::make_shared<JobControl>();
  std::mutex m;
  std::condition_variable cv;
  bool annealing = false;
  bool cancel_sent = false;
  // The first level event holds its level (about to anneal) until the
  // cancel has been sent, so the stop always lands mid-anneal; without
  // the hand-off a fast job can finish before the main thread wakes.
  spec.progress = [&](const std::string& line) {
    if (line.rfind("level ", 0) == 0) {
      std::unique_lock<std::mutex> lock(m);
      annealing = true;
      cv.notify_all();
      cv.wait(lock, [&]() { return cancel_sent; });
    }
  };

  JobOutcome outcome;
  std::thread job([&]() { outcome = session.run(spec); });
  {
    std::unique_lock<std::mutex> lock(m);
    const bool reached =
        cv.wait_for(lock, std::chrono::seconds(60), [&]() { return annealing; });
    if (!reached) {  // never saw a level event; fail without hanging
      spec.control->request_cancel();
      cancel_sent = true;
      lock.unlock();
      job.join();
      FAIL() << "job produced no recursion-level progress event";
    }
  }
  const auto stop_start = std::chrono::steady_clock::now();
  spec.control->request_cancel();
  {
    std::lock_guard<std::mutex> lock(m);
    cancel_sent = true;
  }
  cv.notify_all();
  job.join();
  EXPECT_LT(seconds_since(stop_start), kStopBudgetSeconds);
  EXPECT_EQ(outcome.status, JobStatus::Cancelled);
  expect_valid(outcome);

  // The aborted job must not have poisoned the cache: this seed's
  // curves are still a miss for the next (completed) job.
  const JobOutcome retry = session.run(quick_spec("retry", 99));
  ASSERT_EQ(retry.status, JobStatus::Completed) << retry.error;
  EXPECT_FALSE(retry.curves_cached);
}

TEST_F(ServiceTest, CancelAtEveryRecursionDepthYieldsValidPartialResult) {
  // Fire the cancel after the k-th recursion-level entry, for k over
  // the whole ladder: every stop point must wind down to a complete,
  // in-die placement with the right status.
  for (int cancel_after = 1; cancel_after <= 6; ++cancel_after) {
    PlacementSession session(quick_base());
    PlacementJobSpec spec = quick_spec("depth-" + std::to_string(cancel_after), 7);
    auto control = std::make_shared<JobControl>();
    spec.control = control;
    std::atomic<int> levels_seen{0};
    spec.progress = [&levels_seen, control, cancel_after](const std::string& line) {
      if (line.rfind("level ", 0) == 0 &&
          levels_seen.fetch_add(1) + 1 == cancel_after) {
        control->request_cancel();
      }
    };
    const JobOutcome outcome = session.run(spec);
    if (levels_seen.load() < cancel_after) {
      // The run finished before reaching this depth; the ladder is done.
      EXPECT_EQ(outcome.status, JobStatus::Completed) << outcome.error;
      expect_valid(outcome);
      break;
    }
    EXPECT_EQ(outcome.status, JobStatus::Cancelled) << "cancel_after=" << cancel_after;
    expect_valid(outcome);
  }
}

TEST_F(ServiceTest, TinyDeadlineExpiresWithValidResult) {
  PlacementSession session(quick_base());
  PlacementJobSpec spec = quick_spec("deadline");
  spec.timeout_s = 1e-4;
  const JobOutcome outcome = session.run(spec);
  EXPECT_EQ(outcome.status, JobStatus::DeadlineExpired);
  expect_valid(outcome);
}

TEST_F(ServiceTest, ParseFailureReportsFailedStatus) {
  PlacementSession session(quick_base());
  PlacementJobSpec spec;
  spec.id = "broken";
  spec.verilog_text = "module garbage(;";
  const JobOutcome outcome = session.run(spec);
  EXPECT_EQ(outcome.status, JobStatus::Failed);
  EXPECT_FALSE(outcome.error.empty());
  // The failed parse is retriable, not a poisoned cache entry.
  const JobOutcome good = session.run(quick_spec("after-failure"));
  EXPECT_EQ(good.status, JobStatus::Completed) << good.error;
}

TEST_F(ServiceTest, EmptySpecIsInvalidRequest) {
  // A spec naming no netlist is the caller's error: it fails typed,
  // before any (retried) file read is attempted.
  PlacementSession session(quick_base());
  obs::Counter& retries = obs::default_registry().counter("io.retry_attempts");
  const std::uint64_t retries_before = retries.value();
  PlacementJobSpec spec;
  spec.id = "empty";
  const JobOutcome outcome = session.run(spec);
  EXPECT_EQ(outcome.status, JobStatus::Failed);
  EXPECT_EQ(outcome.error_code, ErrorCode::InvalidRequest);
  EXPECT_FALSE(outcome.error.empty());
  EXPECT_EQ(retries.value(), retries_before);
}

TEST_F(ServiceTest, MacrolessNetlistIsInvalidRequest) {
  // A netlist that parses but has no macro to place is refused typed,
  // not reported as an internal failure.
  CircuitSpec no_macros;
  no_macros.name = "no_macros";
  no_macros.target_cells = 400;
  no_macros.macro_count = 0;
  std::ostringstream verilog;
  write_verilog(generate_circuit(no_macros), verilog);
  PlacementSession session(quick_base());
  PlacementJobSpec spec;
  spec.id = "no-macros";
  spec.verilog_text = verilog.str();
  const JobOutcome outcome = session.run(spec);
  EXPECT_EQ(outcome.status, JobStatus::Failed);
  EXPECT_STREQ(to_string(outcome.error_code), "invalid_request") << outcome.error;
}

TEST_F(ServiceTest, ConcurrentJobsShareOneSessionAndCache) {
  ASSERT_GE(kForcedPoolLanes, 2);
  PlacementSession session(quick_base());
  // Warm everything once so the concurrent batch's expectations are
  // deterministic (no race for "who parses first").
  const JobOutcome warm = session.run(quick_spec("warm-up", 21));
  ASSERT_EQ(warm.status, JobStatus::Completed) << warm.error;
  const std::string warm_def = def_bytes(warm);

  constexpr int kJobs = 4;
  std::vector<JobOutcome> outcomes(kJobs);
  std::vector<std::thread> threads;
  threads.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    threads.emplace_back([&session, &outcomes, i]() {
      // Two jobs repeat the warmed seed, two explore new seeds.
      const std::uint64_t seed = i < 2 ? 21 : 21 + static_cast<std::uint64_t>(i);
      outcomes[static_cast<std::size_t>(i)] =
          session.run(quick_spec("job-" + std::to_string(i), seed));
    });
  }
  for (std::thread& t : threads) t.join();

  for (int i = 0; i < kJobs; ++i) {
    const JobOutcome& outcome = outcomes[static_cast<std::size_t>(i)];
    ASSERT_EQ(outcome.status, JobStatus::Completed) << "job " << i << ": " << outcome.error;
    EXPECT_TRUE(outcome.design_cached) << "job " << i;
    EXPECT_TRUE(outcome.context_cached) << "job " << i;
    EXPECT_TRUE(outcome.plan_cached) << "job " << i;
    expect_valid(outcome);
  }
  // Same seed as the warm run -> same curves served from cache, and the
  // placement is byte-identical to the sequential run despite the
  // concurrent load (the job never reads another job's state).
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(outcomes[static_cast<std::size_t>(i)].curves_cached) << "job " << i;
    EXPECT_EQ(def_bytes(outcomes[static_cast<std::size_t>(i)]), warm_def) << "job " << i;
  }
}

TEST_F(ServiceTest, PerJobProgressStreamsDoNotCross) {
  PlacementSession session(quick_base());
  session.run(quick_spec("warm-up"));
  constexpr int kJobs = 3;
  std::vector<std::vector<std::string>> streams(kJobs);
  std::vector<std::thread> threads;
  for (int i = 0; i < kJobs; ++i) {
    threads.emplace_back([&session, &streams, i]() {
      PlacementJobSpec spec = quick_spec("stream-" + std::to_string(i),
                                         40 + static_cast<std::uint64_t>(i));
      auto* mine = &streams[static_cast<std::size_t>(i)];
      spec.progress = [mine](const std::string& line) { mine->push_back(line); };
      session.run(spec);
    });
  }
  for (std::thread& t : threads) t.join();
  for (int i = 0; i < kJobs; ++i) {
    const std::vector<std::string>& stream = streams[static_cast<std::size_t>(i)];
    ASSERT_FALSE(stream.empty()) << "job " << i;
    // The job header line carries this job's id: a crossed sink would
    // show another job's id here.
    EXPECT_NE(stream.front().find("job stream-" + std::to_string(i)), std::string::npos);
  }
}

TEST(ArtifactCacheUnit, SingleFlightParsesOnce) {
  ArtifactCache cache;
  std::atomic<int> parses{0};
  const auto make = [&parses]() {
    parses.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    Design d("d");
    d.add_cell(d.root(), "c", CellKind::Comb, 1.0);
    d.freeze();
    return d;
  };
  constexpr int kThreads = 6;
  std::vector<std::shared_ptr<const Design>> seen(kThreads);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back(
        [&, i]() { seen[static_cast<std::size_t>(i)] = cache.design(42, make); });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(parses.load(), 1);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)].get(), seen[0].get());
  }
  const ArtifactCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.design_misses, 1u);
  EXPECT_EQ(stats.design_hits, static_cast<std::uint64_t>(kThreads - 1));
}

TEST(ArtifactCacheUnit, KeysSeparateTheirInputs) {
  const std::uint64_t d1 = ArtifactCache::design_key("module a; endmodule");
  const std::uint64_t d2 = ArtifactCache::design_key("module b; endmodule");
  EXPECT_NE(d1, d2);

  SeqExtractOptions seq;
  const std::uint64_t c1 = ArtifactCache::context_key(d1, seq);
  seq.bit_threshold = 8;
  EXPECT_NE(ArtifactCache::context_key(d1, seq), c1);

  AreaFloorplanOptions fp;
  const std::uint64_t k1 = ArtifactCache::curves_key(c1, 1, 0.0, fp);
  EXPECT_NE(ArtifactCache::curves_key(c1, 2, 0.0, fp), k1);  // seed
  EXPECT_NE(ArtifactCache::curves_key(c1, 1, 1.0, fp), k1);  // halo
  // Both curve engines produce bit-identical curves, so the evaluator
  // switch stays out of the key.
  fp.anneal.incremental = !fp.anneal.incremental;
  EXPECT_EQ(ArtifactCache::curves_key(c1, 1, 0.0, fp), k1);
  fp.curve_points = 64;
  EXPECT_NE(ArtifactCache::curves_key(c1, 1, 0.0, fp), k1);  // SA options

  const std::vector<MacroPlacement> none;
  std::vector<MacroPlacement> one(1);
  one[0].cell = 7;
  const std::uint64_t p1 = ArtifactCache::plan_key(c1, 0.4, 0.01, none);
  EXPECT_NE(ArtifactCache::plan_key(c1, 0.5, 0.01, none), p1);  // fractions
  EXPECT_NE(ArtifactCache::plan_key(c1, 0.4, 0.01, one), p1);   // preplaced ids
  // Positions do not shape the plan: same cells, different rects, same key.
  std::vector<MacroPlacement> moved = one;
  moved[0].rect = Rect{5, 5, 2, 2};
  EXPECT_EQ(ArtifactCache::plan_key(c1, 0.4, 0.01, moved),
            ArtifactCache::plan_key(c1, 0.4, 0.01, one));
}

TEST(ServeJson, ParsesFlatObjects) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(parse_json_object(
      R"({"op":"place","seed":7,"lambda":0.5,"progress":true,"note":null})", obj, error))
      << error;
  EXPECT_EQ(json_string(obj, "op"), "place");
  EXPECT_EQ(json_number(obj, "seed"), 7.0);
  EXPECT_EQ(json_number(obj, "lambda"), 0.5);
  EXPECT_TRUE(json_bool(obj, "progress"));
  EXPECT_TRUE(json_has(obj, "note"));
  EXPECT_FALSE(json_has(obj, "absent"));
  EXPECT_EQ(json_string(obj, "absent", "dflt"), "dflt");
}

TEST(ServeJson, EscapesRoundTrip) {
  const std::string nasty = "a\"b\\c\nd\te\x01f";
  const std::string line = JsonWriter().str("s", nasty).num("n", 1.5).boolean("b", false).finish();
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(parse_json_object(line, obj, error)) << error << " in " << line;
  EXPECT_EQ(json_string(obj, "s"), nasty);
  EXPECT_EQ(json_number(obj, "n"), 1.5);
  EXPECT_FALSE(json_bool(obj, "b", true));
}

TEST(ServeJson, RejectsMalformedAndDeeplyNested) {
  JsonObject obj;
  std::string error;
  EXPECT_FALSE(parse_json_object("", obj, error));
  EXPECT_FALSE(parse_json_object("{\"a\":1", obj, error));
  EXPECT_FALSE(parse_json_object("{\"a\":}", obj, error));
  EXPECT_FALSE(parse_json_object("{\"a\":1} trailing", obj, error));
  EXPECT_FALSE(parse_json_object(R"({"a":{"b":{"c":1}}})", obj, error));
  EXPECT_NE(error.find("nested"), std::string::npos);
  EXPECT_FALSE(parse_json_object(R"({"a":[1,2]})", obj, error));
  EXPECT_TRUE(parse_json_object("{}", obj, error));
  EXPECT_TRUE(obj.empty());
}

TEST(ServeJson, NumberParsingIsStrict) {
  // The strtod-based number branch this replaced accepted "inf"/"nan"
  // spellings (not JSON) and, being locale-sensitive, could misparse
  // "0.5" under a comma-decimal locale. from_chars is locale-free and
  // rejects non-finite spellings; out-of-range magnitudes are a parse
  // error rather than silently becoming +/-HUGE_VAL.
  JsonObject obj;
  std::string error;
  EXPECT_FALSE(parse_json_object(R"({"a":inf})", obj, error));
  EXPECT_FALSE(parse_json_object(R"({"a":nan})", obj, error));
  EXPECT_FALSE(parse_json_object(R"({"a":-Infinity})", obj, error));
  EXPECT_FALSE(parse_json_object(R"({"a":1e400})", obj, error));
  EXPECT_NE(error.find("range"), std::string::npos) << error;

  ASSERT_TRUE(parse_json_object(R"({"a":-1.25e2,"b":0.5,"c":12})", obj, error)) << error;
  EXPECT_EQ(json_number(obj, "a"), -125.0);
  EXPECT_EQ(json_number(obj, "b"), 0.5);
  EXPECT_EQ(json_number(obj, "c"), 12.0);
}

TEST(ServeJson, WriterEmitsValidJsonForNonFiniteAndRoundTripsDoubles) {
  // snprintf("%g") wrote bare inf/nan tokens -- invalid JSON that the
  // strict parser (rightly) refuses. Non-finite now degrades to null,
  // and finite doubles round-trip bit-exactly through shortest form.
  const std::string line = JsonWriter()
                               .num("inf", std::numeric_limits<double>::infinity())
                               .num("ninf", -std::numeric_limits<double>::infinity())
                               .num("nan", std::numeric_limits<double>::quiet_NaN())
                               .num("pi", 3.141592653589793)
                               .num("tiny", 5e-324)
                               .num("big", 1.7976931348623157e308)
                               .finish();
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(parse_json_object(line, obj, error)) << error << " in " << line;
  EXPECT_TRUE(json_has(obj, "inf"));   // null, not a number
  EXPECT_TRUE(json_has(obj, "ninf"));
  EXPECT_TRUE(json_has(obj, "nan"));
  EXPECT_EQ(json_number(obj, "inf", -1.0), -1.0);  // null reads as fallback
  EXPECT_EQ(json_number(obj, "pi"), 3.141592653589793);
  EXPECT_EQ(json_number(obj, "tiny"), 5e-324);
  EXPECT_EQ(json_number(obj, "big"), 1.7976931348623157e308);
}

// Since PR 7, one level of object nesting is accepted and flattened to
// dotted keys — trace-event "args" objects round-trip through this.
TEST(ServeJson, FlattensOneLevelOfNesting) {
  JsonObject obj;
  std::string error;
  ASSERT_TRUE(parse_json_object(
      R"({"name":"level","args":{"ordinal":3,"depth":1},"dur":9})", obj, error))
      << error;
  EXPECT_EQ(json_string(obj, "name"), "level");
  EXPECT_EQ(json_number(obj, "args.ordinal"), 3.0);
  EXPECT_EQ(json_number(obj, "args.depth"), 1.0);
  EXPECT_EQ(json_number(obj, "dur"), 9.0);
  EXPECT_FALSE(json_has(obj, "args"));
  ASSERT_TRUE(parse_json_object(R"({"empty":{},"x":1})", obj, error)) << error;
  EXPECT_EQ(json_number(obj, "x"), 1.0);
}

}  // namespace
}  // namespace hidap
