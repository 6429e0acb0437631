// Generator digests: the DesignDigest of generate_circuit on every
// Table III topology, pinned. The generator runs its builder twice (a
// dry pass that counts, then the build into reserved stores); a name,
// id or pin the build writes other than where the one-pass generator
// wrote it moves a digest here.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <string>

#include "design_digest.hpp"
#include "gen/suite.hpp"

namespace hidap {
namespace {

struct Pinned {
  const char* circuit;
  double scale;
  std::uint64_t digest;
};

// Recorded from the one-pass generator the counting one replaced.
constexpr Pinned kPinned[] = {
    {"c1", 0.002, 0xe282e68e0383e3c4ull}, {"c2", 0.002, 0x9b2420cbac8de746ull},
    {"c3", 0.002, 0xa9631ac9175fcd59ull}, {"c4", 0.002, 0x58ae1699a4e69f6cull},
    {"c5", 0.002, 0xcd5fbdb289322fbaull}, {"c6", 0.002, 0x8dd18f3870d2a2cfull},
    {"c7", 0.002, 0x07526cacbef8a814ull}, {"c8", 0.002, 0x06890c0cc5d624f3ull},
    {"c1", 0.1, 0x8a9f24bd5605a5afull},   {"c3", 0.1, 0xb64ec31e0c27352dull},
};

TEST(GeneratorDigest, GeneratedDesignsArePinned) {
  for (const Pinned& p : kPinned) {
    const Design design = generate_circuit(suite_circuit(p.circuit, p.scale).spec);
    const std::uint64_t digest = DesignDigest(design).value();
    char got[32];
    std::snprintf(got, sizeof got, "0x%016" PRIx64 "ull", digest);
    EXPECT_EQ(digest, p.digest) << p.circuit << " at scale " << p.scale << ": got " << got;
  }
}

}  // namespace
}  // namespace hidap
