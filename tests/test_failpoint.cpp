// Fail-point framework unit tests: spec-string parsing, the throw and
// delay modes, the one-shot trigger, registry enumeration, the
// structured error taxonomy, and the transient-I/O retry wrapper.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/retry.hpp"

namespace hidap {
namespace {

// Every test leaves the global registry disarmed so suites and cases
// stay independent.
class FailPointTest : public ::testing::Test {
 protected:
  void TearDown() override { failpoints::disarm_all(); }

  // A scratch point outside the static site table; ad-hoc names get
  // ErrorCode::Internal by default.
  FailPoint& scratch() { return FailPointRegistry::instance().point("test.scratch"); }
};

TEST_F(FailPointTest, DisarmedPointNeverFires) {
  FailPoint& p = scratch();
  EXPECT_FALSE(p.armed());
  // The macro fast path: armed() false means fire() is never called.
  for (int i = 0; i < 100; ++i) HIDAP_FAILPOINT("test.scratch");
  EXPECT_EQ(p.fire_count(), 0u);
}

TEST_F(FailPointTest, ThrowModeRaisesDefaultCode) {
  ASSERT_TRUE(failpoints::arm("test.scratch", "throw"));
  try {
    HIDAP_FAILPOINT("test.scratch");
    FAIL() << "armed throw point did not throw";
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::Internal);  // ad-hoc default
    EXPECT_NE(std::string(e.what()).find("test.scratch"), std::string::npos);
  }
  EXPECT_EQ(scratch().fire_count(), 1u);
}

TEST_F(FailPointTest, ThrowModeCodeOverride) {
  ASSERT_TRUE(failpoints::arm("test.scratch", "throw(io_error)"));
  try {
    HIDAP_FAILPOINT("test.scratch");
    FAIL() << "armed throw point did not throw";
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::IoError);
  }
}

TEST_F(FailPointTest, RegisteredPointThrowsItsTableCode) {
  ASSERT_TRUE(failpoints::arm("cache.design_parse", "throw"));
  try {
    HIDAP_FAILPOINT("cache.design_parse");
    FAIL() << "armed throw point did not throw";
  } catch (const HidapError& e) {
    EXPECT_EQ(e.code(), ErrorCode::ParseError);
  }
}

TEST_F(FailPointTest, DelayModeSleepsAndContinues) {
  ASSERT_TRUE(failpoints::arm("test.scratch", "delay(30)"));
  const auto start = std::chrono::steady_clock::now();
  HIDAP_FAILPOINT("test.scratch");  // must not throw
  const auto elapsed =
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start);
  EXPECT_GE(elapsed.count(), 25);
  EXPECT_EQ(scratch().fire_count(), 1u);
}

TEST_F(FailPointTest, OnceTriggerSelfDisarms) {
  ASSERT_TRUE(failpoints::arm("test.scratch", "throw@once"));
  EXPECT_THROW(HIDAP_FAILPOINT("test.scratch"), HidapError);
  EXPECT_FALSE(scratch().armed());  // self-disarmed
  for (int i = 0; i < 10; ++i) EXPECT_NO_THROW(HIDAP_FAILPOINT("test.scratch"));
  EXPECT_EQ(scratch().fire_count(), 1u);
}

TEST_F(FailPointTest, MalformedSpecsRejectedAndLeaveDisarmed) {
  const char* bad[] = {
      "",           "bogus",        "throw(nope",     "delay()",   "delay(-5)",
      "delay(abc)", "error@",       "error@every(0)", "error@p(2)", "error@p(-0.1)",
      "error@once(3)", "throw@every(x)",
      // Modes and triggers no site or sweep arms are not part of the grammar.
      "error", "throw@every(3)", "throw@p(0.5)",
  };
  for (const char* spec : bad) {
    std::string error;
    EXPECT_FALSE(failpoints::arm("test.scratch", spec, &error))
        << "spec accepted: " << spec;
    EXPECT_FALSE(error.empty()) << spec;
    EXPECT_FALSE(scratch().armed()) << spec;
  }
}

TEST_F(FailPointTest, SpecListArmsMultipleAndSkipsMalformed) {
  const int armed = FailPointRegistry::instance().arm_from_spec_list(
      "test.scratch:throw@once, cache.design_parse:throw ,broken");
  EXPECT_EQ(armed, 2);
  EXPECT_TRUE(scratch().armed());
  EXPECT_TRUE(FailPointRegistry::instance().point("cache.design_parse").armed());
}

TEST_F(FailPointTest, RegistryListsEveryStaticSite) {
  const std::vector<FailPoint*> points = FailPointRegistry::instance().all_points();
  // At least 12 distinct registered points; the static table carries
  // 16. Enumeration works before any site has executed.
  std::size_t table_points = 0;
  for (const FailPoint* p : points) {
    if (p->name().rfind("test.", 0) != 0) ++table_points;
  }
  EXPECT_GE(table_points, 12u);
  for (const char* name : {"netlist.verilog_parse", "netlist.def_parse",
                           "cache.design_parse", "cache.donate", "session.run",
                           "pool.dispatch", "pool.task", "serve.request", "serve.job"}) {
    bool found = false;
    for (const FailPoint* p : points) found = found || p->name() == name;
    EXPECT_TRUE(found) << "missing static site " << name;
  }
}

TEST_F(FailPointTest, DisarmAllClearsEverything) {
  ASSERT_TRUE(failpoints::arm("test.scratch", "throw"));
  ASSERT_TRUE(failpoints::arm("session.run", "delay(1)"));
  failpoints::disarm_all();
  for (FailPoint* p : FailPointRegistry::instance().all_points()) {
    EXPECT_FALSE(p->armed()) << p->name();
  }
}

// --- Structured error taxonomy ---

TEST(ErrorTaxonomyTest, WireSpellingsRoundTrip) {
  const ErrorCode codes[] = {ErrorCode::Ok,  ErrorCode::ParseError,
                             ErrorCode::IoError,        ErrorCode::InvalidRequest,
                             ErrorCode::ResourceExhausted, ErrorCode::Cancelled,
                             ErrorCode::DeadlineExpired, ErrorCode::Internal};
  for (const ErrorCode code : codes) {
    EXPECT_EQ(error_code_from_string(to_string(code)), code);
  }
  EXPECT_STREQ(to_string(ErrorCode::ParseError), "parse_error");
  EXPECT_STREQ(to_string(ErrorCode::ResourceExhausted), "resource_exhausted");
  EXPECT_EQ(error_code_from_string("no_such_code"), ErrorCode::Internal);
}

TEST(ErrorTaxonomyTest, ClassifyExceptionMapsTypedAndUntyped) {
  const HidapError io(ErrorCode::IoError, "io");
  EXPECT_EQ(classify_exception(io), ErrorCode::IoError);
  const VerilogParseError verilog("bad token", 7);
  EXPECT_EQ(classify_exception(verilog), ErrorCode::ParseError);
  const std::runtime_error bare("untyped");
  EXPECT_EQ(classify_exception(bare), ErrorCode::Internal);
}

TEST(ErrorTaxonomyTest, ParseErrorsCarryLineNumbers) {
  try {
    parse_verilog_string("module top(\n  a\n  !!!\n");
    FAIL() << "malformed verilog parsed";
  } catch (const VerilogParseError& e) {
    EXPECT_GT(e.line(), 0);
    EXPECT_NE(std::string(e.what()).find("line"), std::string::npos);
  }
  std::istringstream def("VERSION 5.8 ;\nDESIGN top ;\nUNITS DISTANCE MICRONS oops ;\n");
  try {
    parse_def(def);
    FAIL() << "malformed DEF parsed";
  } catch (const DefParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(classify_exception(e), ErrorCode::ParseError);
  }
}

TEST(ErrorTaxonomyTest, OnlyIoErrorIsTransient) {
  EXPECT_TRUE(is_transient(ErrorCode::IoError));
  EXPECT_FALSE(is_transient(ErrorCode::ParseError));
  EXPECT_FALSE(is_transient(ErrorCode::ResourceExhausted));
  EXPECT_FALSE(is_transient(ErrorCode::Internal));
}

// --- Retry wrapper ---

TEST(RetryTest, HealsTransientFailure) {
  failpoints::disarm_all();
  int calls = 0;
  RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_ms = 1;
  const int result = with_retries(policy, [&calls]() {
    if (++calls < 3) throw HidapError(ErrorCode::IoError, "flaky");
    return 41 + 1;
  });
  EXPECT_EQ(result, 42);
  EXPECT_EQ(calls, 3);
}

TEST(RetryTest, ExhaustedRetriesRethrow) {
  int calls = 0;
  RetryPolicy policy;
  policy.attempts = 2;
  policy.backoff_ms = 0;
  EXPECT_THROW(with_retries(policy,
                            [&calls]() -> int {
                              ++calls;
                              throw HidapError(ErrorCode::IoError, "still down");
                            }),
               HidapError);
  EXPECT_EQ(calls, 2);
}

TEST(RetryTest, DeterministicFailuresNeverRetry) {
  int calls = 0;
  RetryPolicy policy;
  policy.attempts = 5;
  policy.backoff_ms = 0;
  EXPECT_THROW(with_retries(policy,
                            [&calls]() -> int {
                              ++calls;
                              throw HidapError(ErrorCode::ParseError, "bad input");
                            }),
               HidapError);
  EXPECT_EQ(calls, 1);  // parse errors are deterministic; retrying wastes work
}

TEST(RetryTest, RetriesWithOnceTriggeredFailpointHeal) {
  // The end-to-end shape the session uses: a one-shot injected I/O
  // fault heals on the retry attempt.
  ASSERT_TRUE(failpoints::arm("test.scratch", "throw(io_error)@once"));
  RetryPolicy policy;
  policy.attempts = 3;
  policy.backoff_ms = 1;
  const int result = with_retries(policy, []() {
    HIDAP_FAILPOINT("test.scratch");
    return 7;
  });
  EXPECT_EQ(result, 7);
  EXPECT_EQ(failpoints::fire_count("test.scratch"), 1u);
  failpoints::disarm_all();
}

}  // namespace
}  // namespace hidap
