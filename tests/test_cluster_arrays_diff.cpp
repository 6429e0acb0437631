// Differential test of array clustering (paper sect. IV-D step 2): the
// one-sort cluster_arrays must group exactly like the map-based
// implementation it replaced, kept here as the oracle -- same groups in
// the same order, same bases, same member bits in the same order -- on
// the suite designs (in memory and read back from Verilog) and on seeded
// random names.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "gen/suite.hpp"
#include "netlist/array_naming.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

// ---- oracle: the map-based clustering with its own name parser --------

struct OracleName {
  std::string base;
  int index = 0;
};

bool all_digits(const std::string& s) {
  return !s.empty() && std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
}

// The string-building parser; a suffix std::stoi rejects as out of range
// carries no index (the only intended difference from its old behavior,
// which was to throw).
std::optional<OracleName> oracle_parse(const std::string& name) {
  const auto index = [](const std::string& digits) -> std::optional<int> {
    try {
      return std::stoi(digits);
    } catch (const std::out_of_range&) {
      return std::nullopt;
    }
  };
  if (!name.empty() && name.back() == ']') {
    const auto open = name.rfind('[');
    if (open != std::string::npos && open > 0) {
      const std::string digits = name.substr(open + 1, name.size() - open - 2);
      if (all_digits(digits)) {
        if (const auto i = index(digits)) return OracleName{name.substr(0, open), *i};
      }
    }
  }
  const auto us = name.rfind('_');
  if (us != std::string::npos && us > 0 && us + 1 < name.size()) {
    const std::string digits = name.substr(us + 1);
    if (all_digits(digits)) {
      if (const auto i = index(digits)) return OracleName{name.substr(0, us), *i};
    }
  }
  return std::nullopt;
}

struct OracleGroup {
  std::string base;
  HierId hier = 0;
  CellKind kind = CellKind::Flop;
  std::vector<CellId> bits;
};

std::vector<OracleGroup> oracle_cluster(const Design& design) {
  std::map<std::tuple<HierId, int, std::string>, OracleGroup> groups;
  for (std::size_t i = 0; i < design.cell_count(); ++i) {
    const CellId id = static_cast<CellId>(i);
    const Cell& c = design.cell(id);
    if (c.kind != CellKind::Flop && !is_port(c.kind)) continue;
    std::string base(design.cell_name(id));
    if (const auto parsed = oracle_parse(base)) base = parsed->base;
    auto [it, inserted] =
        groups.try_emplace(std::make_tuple(c.hier, static_cast<int>(c.kind), base));
    if (inserted) it->second = OracleGroup{base, c.hier, c.kind, {}};
    it->second.bits.push_back(id);
  }
  std::vector<OracleGroup> out;
  for (auto& [key, group] : groups) {
    std::sort(group.bits.begin(), group.bits.end(), [&](CellId a, CellId b) {
      const auto pa = oracle_parse(std::string(design.cell_name(a)));
      const auto pb = oracle_parse(std::string(design.cell_name(b)));
      const int ia = pa ? pa->index : 0;
      const int ib = pb ? pb->index : 0;
      return std::tie(ia, a) < std::tie(ib, b);
    });
    out.push_back(std::move(group));
  }
  return out;
}

void expect_matches_oracle(const Design& design, const std::string& label) {
  const std::vector<OracleGroup> expected = oracle_cluster(design);
  const ArrayClusters got = cluster_arrays(design);
  ASSERT_EQ(got.groups.size(), expected.size()) << label;
  std::size_t members = 0;
  for (std::size_t g = 0; g < expected.size(); ++g) {
    const ArrayGroup& group = got.groups[g];
    EXPECT_EQ(group.base, expected[g].base) << label << " group " << g;
    EXPECT_EQ(group.hier, expected[g].hier) << label << " group " << g;
    EXPECT_EQ(group.kind, expected[g].kind) << label << " group " << g;
    const std::span<const CellId> bits = got.bits(group);
    EXPECT_TRUE(std::equal(bits.begin(), bits.end(), expected[g].bits.begin(),
                           expected[g].bits.end()))
        << label << " group " << g << " (" << expected[g].base << ")";
    members += bits.size();
  }
  EXPECT_EQ(got.members.size(), members) << label;
}

class SuiteClustering : public ::testing::TestWithParam<int> {};

TEST_P(SuiteClustering, InMemoryAndVerilogFedMatchOracle) {
  set_log_level(LogLevel::Warn);
  const std::string name = "c" + std::to_string(GetParam());
  const Design design = generate_circuit(suite_circuit(name, 0.002).spec);
  expect_matches_oracle(design, name + " in memory");
  std::ostringstream text;
  write_verilog(design, text);
  expect_matches_oracle(parse_verilog_string(text.str()), name + " from Verilog");
}

INSTANTIATE_TEST_SUITE_P(Suite, SuiteClustering, ::testing::Range(1, 9));

// Random names over a few bases: bracket and underscore indices, both
// forms on one base, suffix-only and malformed forms, leading zeros,
// indices past int, and one base repeated across hierarchy nodes and
// cell kinds; inserted in random order.
class RandomNameClustering : public ::testing::TestWithParam<int> {};

TEST_P(RandomNameClustering, MatchesOracle) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
  Design design("top");
  const MacroDefId ram = design.library().add(MacroLibrary::make_sram("RAM", 4, 4, 8));
  std::vector<HierId> hiers = {design.root()};
  for (int h = 0; h < 3; ++h) {
    hiers.push_back(design.add_hier(hiers[rng.next_below(hiers.size())], "h" + std::to_string(h)));
  }
  const std::vector<std::string> bases = {"d", "data_q", "x_1", "bus_2", "q"};
  const std::vector<std::string> suffixes = {
      "",     "_",     "[",        "[]",        "[x]",          "_a",
      "_007", "[007]", "_0[3]",    "_99999999999", "[99999999999]", "[2147483648]",
      "_2147483647"};
  const CellKind kinds[] = {CellKind::Flop, CellKind::Flop, CellKind::PortIn,
                            CellKind::PortOut, CellKind::Comb};
  for (int i = 0; i < 300; ++i) {
    std::string name = bases[rng.next_below(bases.size())];
    switch (rng.next_below(4)) {
      case 0:
        name += "[" + std::to_string(rng.next_below(40)) + "]";
        break;
      case 1:
        name += "_" + std::to_string(rng.next_below(40));
        break;
      case 2:
        name += suffixes[rng.next_below(suffixes.size())];
        break;
      default:
        name = "_" + std::to_string(rng.next_below(5));  // suffix only: no base
        break;
    }
    const HierId hier = hiers[rng.next_below(hiers.size())];
    if (rng.next_below(20) == 0) {
      design.add_cell(hier, name, CellKind::Macro, 0.0, ram);
    } else {
      design.add_cell(hier, name, kinds[rng.next_below(std::size(kinds))], 1.0);
    }
  }
  expect_matches_oracle(design, "seed " + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomNameClustering, ::testing::Range(1, 13));

}  // namespace
}  // namespace hidap
