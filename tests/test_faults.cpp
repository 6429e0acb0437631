// Fault-injection sweep (ISSUE 9): arm every registered fail point one
// at a time against real placement jobs and assert the blast radius is
// exactly what the taxonomy promises -- no crash, the documented
// ErrorCode, no cache poisoning (a retry after disarming reproduces the
// never-faulted DEF byte for byte), and graceful degradation where a
// degradation path exists (donation faults never fail a completed job).
// Also: single-flight retriability under concurrent jobs (the service
// label reruns this under TSan at HIDAP_THREADS=4).

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "force_pool_lanes.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "service/placement_session.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

const int kForcedPoolLanes = test_support::force_pool_lanes();

class FaultSweepTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    set_log_level(LogLevel::Error);
    // Retry backoff off: the sweep exhausts I/O retries on purpose.
    setenv("HIDAP_IO_BACKOFF_MS", "0", 1);
    const Design design = generate_circuit(fig1_spec());
    std::ostringstream verilog;
    write_verilog(design, verilog);
    verilog_text_ = new std::string(verilog.str());
    // ctest runs every case as its own process in the suite's working
    // directory; a per-process name keeps one case's teardown from
    // deleting the input under a concurrent neighbour.
    verilog_path_ = new std::string(scratch_name("fault_sweep_input") + ".v");
    std::ofstream out(*verilog_path_, std::ios::binary);
    out << *verilog_text_;
    ASSERT_TRUE(out.good());
  }
  static void TearDownTestSuite() {
    std::remove(verilog_path_->c_str());
    unsetenv("HIDAP_IO_BACKOFF_MS");
    delete verilog_text_;
    delete verilog_path_;
    verilog_text_ = nullptr;
    verilog_path_ = nullptr;
  }
  void TearDown() override { failpoints::disarm_all(); }

  // Per-process scratch file stem in the shared working directory.
  static std::string scratch_name(const char* stem) {
    return std::string(stem) + "_" + std::to_string(::getpid());
  }

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

  static PlacementJobSpec file_spec(const std::string& id) {
    PlacementJobSpec spec;
    spec.id = id;
    spec.verilog_path = *verilog_path_;
    spec.seed = 7;
    return spec;
  }

  static std::string def_bytes(const JobOutcome& outcome) {
    std::ostringstream out;
    write_def(*outcome.design, outcome.placement, out);
    return out.str();
  }

  // The never-faulted reference DEF, computed once (placements are
  // deterministic for a fixed spec, so it is valid across sessions).
  static const std::string& baseline_def() {
    static const std::string def = []() {
      PlacementSession session(quick_base());
      const JobOutcome outcome = session.run(file_spec("baseline"));
      EXPECT_EQ(outcome.status, JobStatus::Completed);
      if (!outcome.design) {
        ADD_FAILURE() << "baseline job produced no design: " << outcome.error;
        return std::string();
      }
      return def_bytes(outcome);
    }();
    return def;
  }

  static std::string* verilog_text_;
  static std::string* verilog_path_;
};

std::string* FaultSweepTest::verilog_text_ = nullptr;
std::string* FaultSweepTest::verilog_path_ = nullptr;

// One sweep entry: the armed point, the ErrorCode a failed job must
// surface, and whether the job fails at all (sites with a degradation
// path keep the job alive by design).
struct SweepCase {
  const char* point;
  ErrorCode code;
  JobStatus expected;
};

TEST_F(FaultSweepTest, EveryInjectedFaultYieldsTypedErrorAndCleanRetry) {
  const SweepCase cases[] = {
      {"session.run", ErrorCode::Internal, JobStatus::Failed},
      // I/O faults are retried (HIDAP_IO_RETRIES, default 3); a
      // persistent fault exhausts the retries and still fails typed.
      {"session.read_input", ErrorCode::IoError, JobStatus::Failed},
      {"netlist.verilog_parse", ErrorCode::ParseError, JobStatus::Failed},
      {"cache.design_parse", ErrorCode::ParseError, JobStatus::Failed},
      {"cache.context_build", ErrorCode::Internal, JobStatus::Failed},
      {"pool.dispatch", ErrorCode::ResourceExhausted, JobStatus::Failed},
      {"pool.task", ErrorCode::Internal, JobStatus::Failed},
      // Donation faults degrade to a recompute next job; the completed
      // job must never be failed retroactively.
      {"cache.donate", ErrorCode::Ok, JobStatus::Completed},
  };
  ASSERT_FALSE(baseline_def().empty());

  for (const SweepCase& c : cases) {
    SCOPED_TRACE(c.point);
    PlacementSession session(quick_base());
    FailPoint& point = FailPointRegistry::instance().point(c.point);
    point.reset_counts();
    ASSERT_TRUE(failpoints::arm(c.point, "throw"));

    const JobOutcome faulted = session.run(file_spec(std::string("faulted-") + c.point));
    EXPECT_EQ(faulted.status, c.expected);
    EXPECT_EQ(faulted.error_code, c.code);
    EXPECT_GT(point.fire_count(), 0u) << "armed point never evaluated";
    if (c.expected == JobStatus::Failed) {
      EXPECT_FALSE(faulted.error.empty());
    } else {
      // Degraded-but-completed: the result is still the real placement.
      ASSERT_TRUE(faulted.design);
      EXPECT_EQ(def_bytes(faulted), baseline_def());
    }

    // Disarm and retry through the SAME session: whatever the fault
    // touched (single-flight entries, donation slots) must not have
    // poisoned the cache -- the retry reproduces the reference bytes.
    failpoints::disarm(c.point);
    const JobOutcome retried = session.run(file_spec(std::string("retry-") + c.point));
    EXPECT_EQ(retried.status, JobStatus::Completed);
    EXPECT_EQ(retried.error_code, ErrorCode::Ok);
    ASSERT_TRUE(retried.design);
    EXPECT_EQ(def_bytes(retried), baseline_def());
  }
}

TEST_F(FaultSweepTest, TransientReadFaultHealsViaRetry) {
  // One-shot I/O fault on the input read: the bounded-backoff retry
  // (satellite: transient IoErrors on file-backed requests) absorbs it
  // and the job completes as if nothing happened.
  PlacementSession session(quick_base());
  FailPoint& point = FailPointRegistry::instance().point("session.read_input");
  point.reset_counts();
  ASSERT_TRUE(failpoints::arm("session.read_input", "throw@once"));
  const JobOutcome outcome = session.run(file_spec("healed"));
  EXPECT_EQ(outcome.status, JobStatus::Completed);
  EXPECT_EQ(point.fire_count(), 1u);
  ASSERT_TRUE(outcome.design);
  EXPECT_EQ(def_bytes(outcome), baseline_def());
}

TEST_F(FaultSweepTest, OversizedInputShedsWithResourceExhausted) {
  PlacementSession session(quick_base());
  PlacementJobSpec spec = file_spec("oversized");
  spec.max_input_bytes = 64;  // far below the netlist's size
  const JobOutcome outcome = session.run(spec);
  EXPECT_EQ(outcome.status, JobStatus::Failed);
  EXPECT_EQ(outcome.error_code, ErrorCode::ResourceExhausted);
  // The limit must not have poisoned anything for correctly-sized jobs.
  const JobOutcome retried = session.run(file_spec("after-oversized"));
  EXPECT_EQ(retried.status, JobStatus::Completed);
  ASSERT_TRUE(retried.design);
  EXPECT_EQ(def_bytes(retried), baseline_def());
}

TEST_F(FaultSweepTest, SingleFlightParseFaultIsSharedTypedAndRetriable) {
  // N concurrent jobs race into the same design's single-flight parse
  // with the parse fail point armed one-shot. Whoever leads fires; the
  // leader AND every follower that joined its flight observe the same
  // typed ParseError (late arrivals may start a fresh, now-disarmed
  // flight and succeed -- also correct). Afterwards the cache must be
  // clean: a fresh attempt parses and completes.
  PlacementSession session(quick_base());
  FailPoint& point = FailPointRegistry::instance().point("cache.design_parse");
  point.reset_counts();
  ASSERT_TRUE(failpoints::arm("cache.design_parse", "throw@once"));

  constexpr int kJobs = 4;
  std::vector<JobOutcome> outcomes(kJobs);
  std::vector<std::thread> threads;
  threads.reserve(kJobs);
  for (int i = 0; i < kJobs; ++i) {
    threads.emplace_back([&session, &outcomes, i]() {
      PlacementJobSpec spec = file_spec("flight-" + std::to_string(i));
      spec.verilog_text = *verilog_text_;  // same key, no file read race
      spec.verilog_path.clear();
      outcomes[static_cast<std::size_t>(i)] = session.run(spec);
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(point.fire_count(), 1u);  // one-shot: exactly one leader fired
  int failed = 0;
  for (const JobOutcome& outcome : outcomes) {
    if (outcome.status == JobStatus::Failed) {
      ++failed;
      // Followers see the leader's typed error, not a generic one.
      EXPECT_EQ(outcome.error_code, ErrorCode::ParseError);
    } else {
      EXPECT_EQ(outcome.status, JobStatus::Completed);
      ASSERT_TRUE(outcome.design);
      EXPECT_EQ(def_bytes(outcome), baseline_def());
    }
  }
  EXPECT_GE(failed, 1);  // at least the leader observed the fault

  // The failed flight's entry was erased, not cached: the next attempt
  // re-parses and completes with the reference bytes.
  const JobOutcome after = session.run(file_spec("after-flight"));
  EXPECT_EQ(after.status, JobStatus::Completed);
  ASSERT_TRUE(after.design);
  EXPECT_EQ(def_bytes(after), baseline_def());
  const ArtifactCache::Stats stats = session.cache_stats();
  EXPECT_GT(stats.design_misses, 0u);
}

TEST_F(FaultSweepTest, DisarmedSweepIsByteIdenticalToBaseline) {
  // The disarmed-cost contract is also a determinism contract: merely
  // having fail points compiled in must not perturb any RNG or accept
  // stream. (The timing-only delay mode is exercised in the unit suite;
  // here the whole pipeline runs with every point present, none armed.)
  PlacementSession session(quick_base());
  const JobOutcome outcome = session.run(file_spec("disarmed"));
  ASSERT_EQ(outcome.status, JobStatus::Completed);
  ASSERT_TRUE(outcome.design);
  EXPECT_EQ(def_bytes(outcome), baseline_def());
}

// --- Reader fail points outside the session path ---

TEST_F(FaultSweepTest, FileReaderFaultsAreTypedIoErrors) {
  // Disarmed: the real files parse fine.
  EXPECT_GT(parse_verilog_file(*verilog_path_).macro_count(), 0u);

  FailPoint& vread = FailPointRegistry::instance().point("netlist.verilog_read");
  vread.reset_counts();
  ASSERT_TRUE(failpoints::arm("netlist.verilog_read", "throw"));
  try {
    parse_verilog_file(*verilog_path_);
    FAIL() << "armed reader fault did not surface";
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::IoError);
  }
  EXPECT_EQ(vread.fire_count(), 1u);
  failpoints::disarm("netlist.verilog_read");

  // DEF reader: write a valid DEF, then fault its read.
  PlacementSession session(quick_base());
  const JobOutcome outcome = session.run(file_spec("def-source"));
  ASSERT_EQ(outcome.status, JobStatus::Completed);
  const std::string def_path = scratch_name("fault_sweep_roundtrip") + ".def";
  ASSERT_TRUE(outcome.design);
  write_def_file(*outcome.design, outcome.placement, def_path);
  EXPECT_FALSE(parse_def_file(def_path).components.empty());
  ASSERT_TRUE(failpoints::arm("netlist.def_read", "throw"));
  try {
    parse_def_file(def_path);
    FAIL() << "armed reader fault did not surface";
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::IoError);
  }
  failpoints::disarm("netlist.def_read");
  std::remove(def_path.c_str());
}

// --- Writer fail points and full disks ---

// Calls `write` and expects a HidapError carrying IoError.
template <typename Write>
void expect_io_error(const char* what, Write&& write) {
  try {
    write();
    ADD_FAILURE() << what << ": no error surfaced";
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::IoError) << what << ": " << e.what();
  }
}

TEST_F(FaultSweepTest, FileWriterFaultsAreTypedIoErrors) {
  const Design design = parse_verilog_string(*verilog_text_);
  const PlacementResult unplaced;
  const std::string verilog_path = scratch_name("fault_sweep_write") + ".v";
  const std::string def_path = scratch_name("fault_sweep_write") + ".def";
  const auto armed_write = [](const char* point, const auto& write) {
    FailPoint& fp = FailPointRegistry::instance().point(point);
    fp.reset_counts();
    ASSERT_TRUE(failpoints::arm(point, "throw"));
    expect_io_error(point, write);
    EXPECT_EQ(fp.fire_count(), 1u) << point;
    failpoints::disarm(point);
  };
  armed_write("netlist.verilog_write", [&] { write_verilog_file(design, verilog_path); });
  armed_write("netlist.def_write", [&] { write_def_file(design, unplaced, def_path); });
  // Disarmed, both writers succeed.
  write_verilog_file(design, verilog_path);
  write_def_file(design, unplaced, def_path);
  EXPECT_EQ(parse_verilog_file(verilog_path).cell_count(), design.cell_count());
  EXPECT_EQ(parse_def_file(def_path).design_name, design.name());
  std::remove(verilog_path.c_str());
  std::remove(def_path.c_str());
}

// A full disk fails the write or the close, never reports success over
// a truncated file.
TEST_F(FaultSweepTest, FullDiskWritesAreTypedIoErrors) {
  if (::access("/dev/full", W_OK) != 0) GTEST_SKIP() << "/dev/full is absent";
  const Design design = parse_verilog_string(*verilog_text_);
  expect_io_error("verilog", [&] { write_verilog_file(design, "/dev/full"); });
  expect_io_error("def", [&] { write_def_file(design, PlacementResult{}, "/dev/full"); });
}

}  // namespace
}  // namespace hidap
