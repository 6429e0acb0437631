// Tests for the utility substrate: RNG, content hash, string helpers,
// array naming.

#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "util/env.hpp"
#include "util/hash.hpp"
#include "util/job_control.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"
#include "util/timer.hpp"

namespace hidap {
namespace {

TEST(Rng, DeterministicFromSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) equal += (a.next_u64() == b.next_u64());
  EXPECT_LT(equal, 4);
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, NextIntCoversRangeInclusive) {
  Rng rng(9);
  std::set<int> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.next_int(3, 7));
  EXPECT_EQ(seen.size(), 5u);
  EXPECT_EQ(*seen.begin(), 3);
  EXPECT_EQ(*seen.rbegin(), 7);
}

TEST(Rng, NextBelowBounds) {
  Rng rng(11);
  for (int i = 0; i < 200; ++i) EXPECT_LT(rng.next_below(13), 13u);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(5);
  Rng child = parent.split();
  EXPECT_NE(parent.next_u64(), child.next_u64());
}

TEST(Hash, MatchesXxh64ReferenceVectors) {
  if constexpr (std::endian::native == std::endian::little) {
    EXPECT_EQ(hash_bytes(""), 0xEF46DB3751D8E999ull);
    EXPECT_EQ(hash_bytes("a"), 0xD24EC4F1A98C6E5Bull);
    EXPECT_EQ(hash_bytes("abc"), 0x44BC2CF5AD770999ull);
  }
}

// Every single-bit flip of buffers of length 0..67 (each lane of the
// 32-byte stripe, the 8-byte and 4-byte tails and the byte tail) moves
// the digest, and no two flips of one buffer collide.
TEST(Hash, SingleBitFlipsGiveDistinctDigests) {
  Rng rng(99);
  for (const bool zeros : {true, false}) {
    for (std::size_t len = 0; len <= 67; ++len) {
      std::string buf(len, '\0');
      if (!zeros) {
        for (char& c : buf) c = static_cast<char>(rng.next_below(256));
      }
      std::set<std::uint64_t> digests = {hash_bytes(buf)};
      for (std::size_t bit = 0; bit < 8 * len; ++bit) {
        buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
        digests.insert(hash_bytes(buf));
        buf[bit / 8] = static_cast<char>(buf[bit / 8] ^ (1 << (bit % 8)));
      }
      EXPECT_EQ(digests.size(), 8 * len + 1) << "length " << len;
    }
  }
}

// The failure mode of a plain (h ^ word) * prime word loop: flipping bit
// 63 of two consecutive words cancels out there, and must not here.
TEST(Hash, TopBitFlipsOfConsecutiveWordsDoNotCancel) {
  for (std::size_t len = 16; len <= 67; ++len) {
    std::string buf(len, 'x');
    const std::uint64_t base = hash_bytes(buf);
    for (std::size_t w = 0; w + 16 <= len; w += 8) {
      buf[w + 7] = static_cast<char>(buf[w + 7] ^ 0x80);
      buf[w + 15] = static_cast<char>(buf[w + 15] ^ 0x80);
      EXPECT_NE(hash_bytes(buf), base) << "length " << len << " word " << w / 8;
      buf[w + 7] = static_cast<char>(buf[w + 7] ^ 0x80);
      buf[w + 15] = static_cast<char>(buf[w + 15] ^ 0x80);
    }
  }
}

TEST(Hash, BuilderSeparatesStringBoundaries) {
  EXPECT_NE(HashBuilder().str("ab").str("c").digest(),
            HashBuilder().str("a").str("bc").digest());
  EXPECT_NE(HashBuilder(1).str("abc").digest(), HashBuilder(2).str("abc").digest());
  EXPECT_EQ(HashBuilder(7).str("abc").u64(3).digest(),
            HashBuilder(7).str("abc").u64(3).digest());
}

TEST(ArrayName, BracketForm) {
  const auto p = parse_array_name("data_q[17]");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->base, "data_q");
  EXPECT_EQ(p->index, 17);
}

TEST(ArrayName, UnderscoreForm) {
  const auto p = parse_array_name("stage_3");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->base, "stage");
  EXPECT_EQ(p->index, 3);
}

TEST(ArrayName, PlainNameRejected) {
  EXPECT_FALSE(parse_array_name("clock").has_value());
  EXPECT_FALSE(parse_array_name("").has_value());
  EXPECT_FALSE(parse_array_name("x[]").has_value());
  EXPECT_FALSE(parse_array_name("x[a]").has_value());
  EXPECT_FALSE(parse_array_name("_5").has_value());  // no base
}

// A digit suffix that does not fit an int is no bit index: the name
// stands alone instead of throwing std::out_of_range.
TEST(ArrayName, OversizeSuffixIsNoIndex) {
  EXPECT_FALSE(parse_array_name("r_99999999999").has_value());
  EXPECT_FALSE(parse_array_name("r[2147483648]").has_value());
  EXPECT_FALSE(parse_array_name("r_-1").has_value());
  const auto p = parse_array_name("r_2147483647");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->base, "r");
  EXPECT_EQ(p->index, 2147483647);
}

TEST(ArrayName, BracketTakesPrecedenceOverUnderscore) {
  const auto p = parse_array_name("bus_2[9]");
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->base, "bus_2");
  EXPECT_EQ(p->index, 9);
}

TEST(StringUtils, SplitKeepsEmptyTokens) {
  const auto t = split("a//b/", '/');
  ASSERT_EQ(t.size(), 4u);
  EXPECT_EQ(t[0], "a");
  EXPECT_EQ(t[1], "");
  EXPECT_EQ(t[2], "b");
  EXPECT_EQ(t[3], "");
}

TEST(StringUtils, Trim) {
  EXPECT_EQ(trim("  x y\t"), "x y");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
}

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(starts_with("HIDAP_DFF", "HIDAP_"));
  EXPECT_FALSE(starts_with("HI", "HIDAP_"));
}

TEST(StringUtils, JoinPath) {
  EXPECT_EQ(join_path("top/a", "b"), "top/a/b");
  EXPECT_EQ(join_path("", "b"), "b");
}

TEST(DeadlineTest, NeverNeverExpires) {
  const Deadline d = Deadline::never();
  EXPECT_TRUE(d.is_never());
  EXPECT_FALSE(d.expired());
  EXPECT_EQ(d.ticks(), Deadline::kNeverTicks);
  EXPECT_GT(d.remaining_seconds(), 1e18);
}

TEST(DeadlineTest, FutureDeadlineNotYetExpired) {
  const Deadline d = Deadline::after_seconds(3600.0);
  EXPECT_FALSE(d.is_never());
  EXPECT_FALSE(d.expired());
  EXPECT_GT(d.remaining_seconds(), 3000.0);
  EXPECT_LE(d.remaining_seconds(), 3600.0);
}

TEST(DeadlineTest, NonPositiveBudgetAlreadyExpired) {
  EXPECT_TRUE(Deadline::after_seconds(0.0).expired());
  EXPECT_TRUE(Deadline::after_seconds(-5.0).expired());
  EXPECT_LE(Deadline::after_seconds(0.0).remaining_seconds(), 0.0);
}

TEST(DeadlineTest, HugeBudgetSaturatesToNever) {
  EXPECT_TRUE(Deadline::after_seconds(1e300).is_never());
}

TEST(DeadlineTest, TicksRoundTrip) {
  const Deadline d = Deadline::after_seconds(60.0);
  const Deadline back = Deadline::from_ticks(d.ticks());
  EXPECT_EQ(back.ticks(), d.ticks());
  EXPECT_FALSE(back.expired());
}

TEST(JobControlTest, DefaultNeverStops) {
  JobControl control;
  EXPECT_FALSE(control.should_stop());
  EXPECT_FALSE(control.cancel_requested());
  EXPECT_FALSE(control.deadline_expired());
  EXPECT_EQ(control.stop_reason(), JobStopReason::None);
}

TEST(JobControlTest, CancelIsSticky) {
  JobControl control;
  control.request_cancel();
  EXPECT_TRUE(control.should_stop());
  EXPECT_TRUE(control.should_stop());  // stays true
  EXPECT_EQ(control.stop_reason(), JobStopReason::Cancelled);
}

TEST(JobControlTest, ExpiredDeadlineStops) {
  JobControl control;
  control.set_deadline(Deadline::after_seconds(0.0));
  EXPECT_TRUE(control.should_stop());
  EXPECT_EQ(control.stop_reason(), JobStopReason::DeadlineExpired);
  // Disarming un-stops (the job had not observed the stop yet).
  control.set_deadline(Deadline::never());
  EXPECT_FALSE(control.should_stop());
}

TEST(JobControlTest, CancelWinsOverDeadline) {
  JobControl control;
  control.set_deadline(Deadline::after_seconds(0.0));
  control.request_cancel();
  EXPECT_EQ(control.stop_reason(), JobStopReason::Cancelled);
}

TEST(JobControlTest, StatusStrings) {
  EXPECT_STREQ(to_string(JobStatus::Completed), "completed");
  EXPECT_STREQ(to_string(JobStatus::Cancelled), "cancelled");
  EXPECT_STREQ(to_string(JobStatus::DeadlineExpired), "deadline_expired");
  EXPECT_STREQ(to_string(JobStatus::Failed), "failed");
  EXPECT_EQ(status_from_stop(JobStopReason::None), JobStatus::Completed);
  EXPECT_EQ(status_from_stop(JobStopReason::Cancelled), JobStatus::Cancelled);
  EXPECT_EQ(status_from_stop(JobStopReason::DeadlineExpired),
            JobStatus::DeadlineExpired);
}

// RAII env var for the env_long/env_double tests; restores on scope exit
// so parallel gtest cases inside this (single-threaded) binary never see
// each other's values.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (had_) {
      ::setenv(name_, saved_.c_str(), 1);
    } else {
      ::unsetenv(name_);
    }
  }

 private:
  const char* name_;
  std::string saved_;
  bool had_ = false;
};

TEST(EnvTest, UnsetAndEmptyReturnFallback) {
  ScopedEnv unset("HIDAP_TEST_KNOB", nullptr);
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 100), 7);
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
  ScopedEnv empty("HIDAP_TEST_KNOB", "");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 100), 7);
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
}

TEST(EnvTest, ParsesValidValues) {
  ScopedEnv v("HIDAP_TEST_KNOB", "42");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 100), 42);
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 100.0), 42.0);
  ScopedEnv f("HIDAP_TEST_KNOB", "0.25");
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 0.25);
}

TEST(EnvTest, TrailingWhitespaceAcceptedTrailingJunkRejected) {
  ScopedEnv ws("HIDAP_TEST_KNOB", "42 ");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 100), 42);
  ScopedEnv junk("HIDAP_TEST_KNOB", "42x");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 100), 7);
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 100.0), 0.5);
}

TEST(EnvTest, GarbageFallsBackInsteadOfBecomingZero) {
  // The atoi reads these helpers replaced turned "auto" into 0 -- which
  // for HIDAP_THREADS meant "unset" and for a clamp-to-min knob meant
  // the minimum. Malformed must mean fallback, never 0.
  ScopedEnv v("HIDAP_TEST_KNOB", "auto");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 100), 7);
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
}

TEST(EnvTest, OutOfRangeClampsOverflowFallsBack) {
  ScopedEnv big("HIDAP_TEST_KNOB", "1000000");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 256), 256);
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 1.0);
  ScopedEnv small("HIDAP_TEST_KNOB", "-3");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 256), 1);
  ScopedEnv overflow("HIDAP_TEST_KNOB", "99999999999999999999999999");
  EXPECT_EQ(env_long("HIDAP_TEST_KNOB", 7, 1, 256), 7);
  ScopedEnv huge("HIDAP_TEST_KNOB", "1e400");  // overflows double
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
}

TEST(EnvTest, NonFiniteDoubleFallsBack) {
  ScopedEnv inf("HIDAP_TEST_KNOB", "inf");
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
  ScopedEnv nan_v("HIDAP_TEST_KNOB", "nan");
  EXPECT_EQ(env_double("HIDAP_TEST_KNOB", 0.5, 0.0, 1.0), 0.5);
}

TEST(JobControlTest, ProgressSinkReceivesFormattedLines) {
  JobControl control;
  std::vector<std::string> lines;
  control.set_progress_sink([&lines](const std::string& s) { lines.push_back(s); });
  control.post_progress("pass %d of %d", 2, 8);
  control.post_progress("plain");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "pass 2 of 8");
  EXPECT_EQ(lines[1], "plain");
  control.set_progress_sink(nullptr);
  control.post_progress("dropped");  // must not crash
  EXPECT_EQ(lines.size(), 2u);
}

}  // namespace
}  // namespace hidap
