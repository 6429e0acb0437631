// Pinned DEF bytes: every Table III topology at scale 0.002, fed both
// in memory and through a Verilog round trip, placed at two seeds and
// at 1 and 4 lanes. Each (topology, input path, seed) has one digest, a
// hash of its place_macros DEF bytes, and both lane counts must print
// it. A change that is meant to keep placements byte-identical must
// keep every digest; a change that moves placements on purpose
// re-records the moved digests and says why. The Verilog text itself is
// pinned too: one digest of the writer's bytes per topology.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <sstream>
#include <string>

#include "core/hidap.hpp"
#include "gen/suite.hpp"
#include "netlist/def_io.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "runtime/thread_pool.hpp"
#include "util/hash.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

struct DigestCase {
  const char* circuit;
  bool verilog;  ///< placed after write_verilog -> parse_verilog_string
  std::uint64_t seed;
  std::uint64_t digest;
};

// clang-format off
constexpr DigestCase kCases[] = {
    {"c1", false, 1, 0x384cf9d10449c2b2ull}, {"c1", false, 2, 0x88307fd8d5cd4d75ull},
    {"c1", true,  1, 0xa809436be0d8b087ull}, {"c1", true,  2, 0x8fe34d313a9bed38ull},
    {"c2", false, 1, 0x3e03846150122f94ull}, {"c2", false, 2, 0x7c1494f4f30748d4ull},
    {"c2", true,  1, 0x8859fb9325a62e09ull}, {"c2", true,  2, 0x91d29f8cec8ded29ull},
    {"c3", false, 1, 0x2aeb505cd404305dull}, {"c3", false, 2, 0xb4b181f0b7f50c1cull},
    {"c3", true,  1, 0x0052c95e79fb5c1aull}, {"c3", true,  2, 0x41b994bf40cc2a32ull},
    {"c4", false, 1, 0x9e609d9e7c62befaull}, {"c4", false, 2, 0x022e71e91a452c98ull},
    {"c4", true,  1, 0x95d06d2275b5a28eull}, {"c4", true,  2, 0xb0cc69e2f6740d1full},
    {"c5", false, 1, 0x2dc5e2dfce85f631ull}, {"c5", false, 2, 0x1924547aba624500ull},
    {"c5", true,  1, 0x555f01722de5a309ull}, {"c5", true,  2, 0x8658de61956e67ceull},
    {"c6", false, 1, 0x8db9db4943be4853ull}, {"c6", false, 2, 0xecdc69aed010348dull},
    {"c6", true,  1, 0xde3cd70ee18a4143ull}, {"c6", true,  2, 0x540ca28f96c6e444ull},
    {"c7", false, 1, 0xf2256e1f8c31aa74ull}, {"c7", false, 2, 0x06521d6e06326ad2ull},
    {"c7", true,  1, 0x3918d0f0ef15af2eull}, {"c7", true,  2, 0x150305418292065cull},
    {"c8", false, 1, 0x8ae311da08fefd91ull}, {"c8", false, 2, 0x1c1d13d08876ce15ull},
    {"c8", true,  1, 0xb767258ba1ac83edull}, {"c8", true,  2, 0xd6b7b122a820e901ull},
};
// clang-format on

HiDaPOptions digest_options() {
  HiDaPOptions o;
  o.layout_anneal.moves_per_temperature = 50;
  o.layout_anneal.max_stagnant_temperatures = 3;
  o.shape_fp.anneal.moves_per_temperature = 40;
  o.shape_fp.anneal.max_stagnant_temperatures = 3;
  return o;
}

Design make_design(const DigestCase& c) {
  CircuitSpec spec = suite_circuit(c.circuit, 0.002).spec;
  spec.seed = c.seed;
  Design design = generate_circuit(spec);
  if (!c.verilog) return design;
  std::ostringstream text;
  write_verilog(design, text);
  return parse_verilog_string(text.str());
}

std::uint64_t def_digest(const Design& design, const PlacementResult& placement) {
  std::ostringstream def;
  write_def(design, placement, def);
  const std::string bytes = def.str();
  return hash_bytes(bytes.data(), bytes.size());
}

TEST(PlaceDigests, DefBytesArePinnedAtOneAndFourLanes) {
  set_log_level(LogLevel::Warn);
  for (const DigestCase& c : kCases) {
    const Design design = make_design(c);
    const PlacementContext context(design);
    for (const int lanes : {1, 4}) {
      HiDaPOptions options = digest_options();
      options.job.seed = c.seed;
      options.num_threads = lanes;
      const std::uint64_t digest = def_digest(design, place_macros(design, context, options));
      char got[32];
      std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", digest);
      EXPECT_EQ(digest, c.digest)
          << c.circuit << (c.verilog ? " verilog" : " in-memory") << " seed " << c.seed
          << " lanes " << lanes << ": got " << got;
    }
  }
}

// XXH64 of write_verilog's output for suite c1-c8 at scale 0.002 (the
// suite's own seeds), recorded from the ostream writer the block writer
// replaced; a change to any written byte fails here.
TEST(VerilogDigests, WriterBytesArePinned) {
  constexpr std::uint64_t kExpected[8] = {
      0x029c44d9033ccac3ull, 0x56ac52d4b5f17c03ull, 0x2b092355a671b8afull, 0x41865ca0c550a7b2ull,
      0xc44678847f458283ull, 0x0d47cf4881589aefull, 0x271e946f35a071b3ull, 0x26a94c2801708592ull};
  for (int i = 0; i < 8; ++i) {
    const std::string name = "c" + std::to_string(i + 1);
    std::ostringstream text;
    write_verilog(generate_circuit(suite_circuit(name, 0.002).spec), text);
    const std::string bytes = text.str();
    const std::uint64_t digest = hash_bytes(bytes.data(), bytes.size());
    char got[32];
    std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", digest);
    EXPECT_EQ(digest, kExpected[i]) << name << ": got " << got;
  }
}

// The writer formats on the pool: its bytes are the pinned ones on
// pools of 1, 2 and 4 lanes (the values WriterBytesArePinned pins).
TEST(VerilogDigests, WriterBytesMatchOnAnyPool) {
  constexpr std::uint64_t kExpected[8] = {
      0x029c44d9033ccac3ull, 0x56ac52d4b5f17c03ull, 0x2b092355a671b8afull, 0x41865ca0c550a7b2ull,
      0xc44678847f458283ull, 0x0d47cf4881589aefull, 0x271e946f35a071b3ull, 0x26a94c2801708592ull};
  ThreadPool pools[] = {ThreadPool(1), ThreadPool(2), ThreadPool(4)};
  for (int i = 0; i < 8; ++i) {
    const std::string name = "c" + std::to_string(i + 1);
    const Design design = generate_circuit(suite_circuit(name, 0.002).spec);
    for (ThreadPool& pool : pools) {
      std::ostringstream text;
      write_verilog(design, text, pool);
      const std::string bytes = text.str();
      const std::uint64_t digest = hash_bytes(bytes.data(), bytes.size());
      char got[32];
      std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", digest);
      EXPECT_EQ(digest, kExpected[i]) << name << " on " << pool.size() << " lanes: got " << got;
    }
  }
}

}  // namespace
}  // namespace hidap
