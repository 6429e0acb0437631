// Structural-Verilog writer/parser tests, including a full round trip on
// a generated circuit.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string_view>

#include "design_digest.hpp"
#include "gen/circuit_gen.hpp"
#include "gen/suite.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "obs/trace.hpp"

namespace hidap {
namespace {

// Fixture netlists, shared by the behaviour tests and the pinned digest.
constexpr const char* kMinimalModule = R"(
    module top ();
      wire n1;
      HIDAP_PIN_IN #(.X(0), .Y(5)) pad (.O0(n1));
      HIDAP_COMB #(.AREA(1.5)) g (.I0(n1));
    endmodule
  )";

constexpr const char* kHierarchyElaboration = R"(
    module leaf (a, y);
      input a;
      output y;
      HIDAP_COMB #(.AREA(1.0)) g (.I0(a), .O0(y));
    endmodule
    module top ();
      wire w1, w2;
      HIDAP_PIN_IN pad (.O0(w1));
      leaf u0 (.a(w1), .y(w2));
      leaf u1 (.a(w2));
    endmodule
  )";

constexpr const char* kVectorWires = R"(
    module top ();
      wire [3:0] bus;
      HIDAP_DFF f0 (.Q0(bus[0]));
      HIDAP_DFF f1 (.D0(bus[0]), .Q0(bus[1]));
    endmodule
  )";

constexpr const char* kMacroHeaderAndPins = R"(
    //HIDAP_MACRO RAM 20 10
    //HIDAP_PIN RAM D0 0 5 8 0
    //HIDAP_PIN RAM Q0 20 5 8 1
    //HIDAP_DIE 500 400
    module top ();
      wire a, b;
      HIDAP_DFF f (.Q0(a), .D0(b));
      RAM mem (.D0(a), .Q0(b));
    endmodule
  )";

constexpr const char* kLexicalCorners = R"(
    /* block comment
       spanning lines */ //HIDAP_MACRO \weird$mem 1.5e1 -0.0
    //HIDAP_PIN \weird$mem A 0.25 -1 4 1
    //HIDAP_PIN nosuch B 1 2 3 0
    //HIDAP_DIE 1e3 7.25E+2 extra
    // HIDAP_MACRO ignored 1 1
    module \top$x ( p );
      input p;
      wire [0:3] rev;  // ascending range
      wire [2:2] one;
      HIDAP_PIN_IN #(.X(-3.5), .Y(+2e-1)) \pad[0] (.O0(p));
      HIDAP_COMB #(.AREA(5.), .AREA(-.125)) g$1 (.I0(p), .I1(), .O0(rev[3]));
      HIDAP_DFF #() f (.D0(rev[3]), .Q0(implicit_net), .Q1(one[2]));
      HIDAP_COMB g2 (.I0(implicit_net), .I1(one[2]));
    endmodule
  )";

// Nets used before their declaration, implicit nets in a parent and a
// child, and a pin the child does not declare: the slot order (declared
// names first, then first use) fixes every NetId.
constexpr const char* kDeclaredAfterUse = R"(
    module leaf (a, y);
      output y;
      HIDAP_COMB #(.AREA(2.0)) g (.I0(a), .I1(loose), .O0(y));
      input a;
    endmodule
    module top ();
      HIDAP_COMB #(.AREA(1.0)) g0 (.I0(late), .I1(implicit_a), .O0(w[1]));
      wire late;
      leaf u (.a(implicit_a), .y(late), .nosuch(w[0]));
      wire [1:0] w;
      HIDAP_DFF f (.D0(implicit_b), .Q0(w[0]), .D1(after));
      wire after;
    endmodule
  )";

TEST(VerilogParser, MinimalModule) {
  const Design d = parse_verilog_string(kMinimalModule);
  EXPECT_EQ(d.cell_count(), 2u);
  EXPECT_EQ(d.net_count(), 1u);
  EXPECT_EQ(d.cell(1).kind, CellKind::Comb);
  EXPECT_DOUBLE_EQ(d.cell(1).area, 1.5);
  ASSERT_TRUE(d.cell(0).fixed_pos.has_value());
  EXPECT_DOUBLE_EQ(d.cell(0).fixed_pos->y, 5.0);
}

TEST(VerilogParser, HierarchyElaboration) {
  const Design d = parse_verilog_string(kHierarchyElaboration);
  EXPECT_EQ(d.hier_count(), 3u);  // top + 2 leaf instances
  EXPECT_EQ(d.cell_count(), 3u);
  // w2 is driven inside u0 and consumed inside u1.
  bool found_cross = false;
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const auto n = static_cast<NetId>(i);
    if (d.has_driver(n) && !d.sinks(n).empty() &&
        d.cell(d.driver(n).cell).hier != d.cell(d.sinks(n)[0].cell).hier) {
      found_cross = true;
    }
  }
  EXPECT_TRUE(found_cross);
}

TEST(VerilogParser, VectorWires) {
  const Design d = parse_verilog_string(kVectorWires);
  EXPECT_EQ(d.net_count(), 4u);
  EXPECT_EQ(d.cell_count(), 2u);
}

TEST(VerilogParser, MacroHeaderAndPins) {
  const Design d = parse_verilog_string(kMacroHeaderAndPins);
  EXPECT_EQ(d.macro_count(), 1u);
  EXPECT_DOUBLE_EQ(d.die().w, 500.0);
  const CellId mac = d.macros()[0];
  EXPECT_DOUBLE_EQ(d.cell(mac).area, 200.0);
  // Q0 drives net b with its pin offset.
  bool q_found = false;
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const NetPin driver = d.driver(static_cast<NetId>(i));
    if (driver.cell == mac) {
      EXPECT_FLOAT_EQ(driver.dx, 20.0f);
      q_found = true;
    }
  }
  EXPECT_TRUE(q_found);
}

TEST(VerilogParser, ErrorsCarryLineNumbers) {
  try {
    parse_verilog_string("module top ();\n  BOGUS_PRIM x ();\nendmodule\n");
    FAIL() << "expected parse error";
  } catch (const VerilogParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(VerilogParser, UnknownMacroPinRejected) {
  EXPECT_THROW(parse_verilog_string(R"(
    //HIDAP_MACRO RAM 20 10
    //HIDAP_PIN RAM D0 0 5 8 0
    module top ();
      wire a;
      RAM mem (.NOPE(a));
    endmodule
  )"),
               VerilogParseError);
}

TEST(VerilogParser, NoTopModuleRejected) {
  // Two modules instantiating each other leave no root.
  EXPECT_THROW(parse_verilog_string(R"(
    module a (); b x (); endmodule
    module b (); a x (); endmodule
  )"),
               VerilogParseError);
}

TEST(VerilogRoundTrip, GeneratedCircuitSurvives) {
  CircuitSpec spec;
  spec.name = "rt";
  spec.target_cells = 1500;
  spec.macro_count = 6;
  spec.subsystems = 2;
  spec.bus_width = 16;
  spec.seed = 3;
  const Design original = generate_circuit(spec);
  ASSERT_TRUE(original.validate().empty());

  std::ostringstream text;
  write_verilog(original, text);
  const Design parsed = parse_verilog_string(text.str());

  EXPECT_TRUE(parsed.validate().empty()) << parsed.validate();
  EXPECT_EQ(parsed.cell_count(), original.cell_count());
  EXPECT_EQ(parsed.macro_count(), original.macro_count());
  EXPECT_EQ(parsed.hier_count(), original.hier_count());
  EXPECT_NEAR(parsed.total_cell_area(), original.total_cell_area(), 1e-3);
  EXPECT_NEAR(parsed.die().w, original.die().w, 1e-6);
  // Net *connections* must be preserved: same number of (driver, sink)
  // pairs overall.
  auto pin_pairs = [](const Design& d) {
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < d.net_count(); ++i) {
      const auto n = static_cast<NetId>(i);
      if (d.has_driver(n)) pairs += d.sinks(n).size();
    }
    return pairs;
  };
  EXPECT_EQ(pin_pairs(parsed), pin_pairs(original));
}

TEST(VerilogRoundTrip, SecondRoundTripIsStable) {
  CircuitSpec spec;
  spec.name = "rt2";
  spec.target_cells = 400;
  spec.macro_count = 2;
  spec.subsystems = 1;
  spec.bus_width = 8;
  const Design d1 = generate_circuit(spec);
  std::ostringstream t1;
  write_verilog(d1, t1);
  const Design d2 = parse_verilog_string(t1.str());
  std::ostringstream t2;
  write_verilog(d2, t2);
  const Design d3 = parse_verilog_string(t2.str());
  EXPECT_EQ(d2.cell_count(), d3.cell_count());
  EXPECT_EQ(d2.net_count(), d3.net_count());
  EXPECT_EQ(d2.hier_count(), d3.hier_count());
}

// The expected values were recorded by running this body against the
// istream-based parser (the declared-after-use case against the token
// lexer that followed it); a parser change that moves any parsed field
// (names, ids, areas, port positions, pin offsets) fails here.
struct DigestCase {
  std::string label;
  std::string text;
  std::uint64_t expected;
  bool suite = false;  ///< writer output of a suite circuit
};

// The fixtures and the writer output of suite c1-c8 at scale 0.002.
std::vector<DigestCase> digest_cases() {
  std::vector<DigestCase> cases = {
      {"minimal", kMinimalModule, 0xde52ca78149166f4ull},
      {"hierarchy", kHierarchyElaboration, 0xe4480263de2f0076ull},
      {"vector", kVectorWires, 0x6773556a11fadad3ull},
      {"macro", kMacroHeaderAndPins, 0x73f37e2390ffdaecull},
      {"lexical", kLexicalCorners, 0x7b358d4af25322dcull},
      {"declared after use", kDeclaredAfterUse, 0xef96e72f590dd819ull},
  };
  const std::uint64_t suite_expected[8] = {
      0x5435fa14a6b80c3dull, 0x47e3dec98b89280dull, 0x025e808cc52554f4ull, 0x0ddf71c6e09155faull,
      0xa23199b42871d2c9ull, 0x28ee0699ba7f646eull, 0x43a1c33f13804f8dull, 0xfc347e2285a9fbc2ull};
  for (int i = 0; i < 8; ++i) {
    const std::string name = "c" + std::to_string(i + 1);
    CircuitSpec spec = suite_circuit(name, 0.002).spec;
    spec.seed = 1000 + static_cast<std::uint64_t>(i);
    std::ostringstream text;
    write_verilog(generate_circuit(spec), text);
    cases.push_back({name, text.str(), suite_expected[i], true});
  }
  return cases;
}

TEST(VerilogParser, ParsedDesignDigestIsPinned) {
  for (const DigestCase& c : digest_cases()) {
    const std::uint64_t got = DesignDigest(parse_verilog_string(c.text)).value();
    EXPECT_EQ(got, c.expected) << c.label << ": got 0x" << std::hex << got;
  }
}

// A parse cut into module-aligned chunks and lexed on the pool gives the
// one-chunk design at any chunk count. On the suite designs every chunk
// must be accepted: one verilog_lex span per chunk and none for a
// one-chunk re-parse.
TEST(VerilogParser, ChunkedParseDigestIsPinned) {
  obs::set_tracing_enabled(true);
  for (const DigestCase& c : digest_cases()) {
    for (const int chunks : {1, 2, 3, 7}) {
      obs::Tracer::instance().clear();
      const std::uint64_t got = DesignDigest(detail::parse_verilog_chunks(c.text, chunks)).value();
      EXPECT_EQ(got, c.expected) << c.label << " at " << chunks << " chunks: got 0x" << std::hex
                                 << got;
      if (!c.suite) continue;
      std::size_t lexes = 0;
      for (const obs::TraceEvent& e : obs::Tracer::instance().collect()) {
        lexes += std::string_view(e.name) == "verilog_lex";
      }
      EXPECT_EQ(lexes, static_cast<std::size_t>(chunks)) << c.label;
    }
  }
  obs::set_tracing_enabled(false);
}

}  // namespace
}  // namespace hidap
