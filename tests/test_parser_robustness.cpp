// Parser robustness: mutated and truncated netlists must either parse or
// throw VerilogParseError -- never crash, hang, or corrupt memory.

#include <gtest/gtest.h>

#include <chrono>
#include <sstream>

#include "core/hidap.hpp"
#include "design_digest.hpp"
#include "gen/circuit_gen.hpp"
#include "netlist/verilog_parser.hpp"
#include "netlist/verilog_writer.hpp"
#include "obs/trace.hpp"
#include "util/rng.hpp"

namespace hidap {
namespace {

std::string sample_netlist() {
  CircuitSpec spec;
  spec.name = "fuzz";
  spec.target_cells = 300;
  spec.macro_count = 2;
  spec.subsystems = 1;
  spec.bus_width = 8;
  const Design d = generate_circuit(spec);
  std::ostringstream out;
  write_verilog(d, out);
  return out.str();
}

// A 2-4 KB netlist (below the generator's structural floor, so built by
// hand): a macro with its pin header, two hierarchy levels, ports, flops
// and gates, written by write_verilog.
std::string tiny_netlist() {
  Design d("tiny");
  d.set_die({200.0, 150.0});
  const MacroDefId ram = d.library().add(MacroLibrary::make_sram("RAM", 40.0, 30.0, 8));
  const HierId core = d.add_hier(d.root(), "core");
  const HierId alu = d.add_hier(core, "alu");
  const CellId in = d.add_cell(d.root(), "in0", CellKind::PortIn, 0.0);
  d.set_fixed_pos(in, Point{0.0, 75.0});
  const CellId out = d.add_cell(d.root(), "out0", CellKind::PortOut, 0.0);
  d.set_fixed_pos(out, Point{200.0, 75.0});
  const CellId mem = d.add_cell(core, "mem", CellKind::Macro, 0.0, ram);
  std::vector<CellId> chain = {in};
  for (int i = 0; i < 20; ++i) {
    const HierId h = i % 2 ? alu : core;
    const CellKind kind = i % 3 ? CellKind::Comb : CellKind::Flop;
    chain.push_back(d.add_cell(h, "c" + std::to_string(i), kind, 1.25 + i));
  }
  chain.push_back(out);
  for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
    const NetId n = d.add_net("n" + std::to_string(i));
    d.set_driver(n, chain[i]);
    d.add_sink(n, chain[i + 1]);
    if (i % 4 == 1) d.add_sink(n, mem, 0.0, 6.0);
  }
  const NetId q = d.add_net("q");
  d.set_driver(q, mem, 40.0, 6.0);
  d.add_sink(q, chain[5]);
  d.freeze();
  std::ostringstream text;
  write_verilog(d, text);
  return text.str();
}

// The only acceptable failure is a clean VerilogParseError; any other
// exception escapes and fails the test.
void expect_parse_or_clean_error(const std::string& text) {
  try {
    const Design d = parse_verilog_string(text);
    EXPECT_TRUE(d.validate().empty());
  } catch (const VerilogParseError&) {
    // acceptable: clean rejection
  }
}

void expect_clean_error_at_line(const std::string& text, int line) {
  try {
    parse_verilog_string(text);
    ADD_FAILURE() << "expected a parse error for: " << text;
  } catch (const VerilogParseError& e) {
    EXPECT_EQ(e.line(), line) << e.what();
  }
}

// A parse forced into 2, 3 and 7 chunks gives the one-chunk outcome:
// the same design, or the same error at the same line.
void expect_chunked_matches_one(const std::string& text) {
  const ParseOutcome one = parse_outcome(text, 1);
  for (const int chunks : {2, 3, 7}) {
    EXPECT_EQ(parse_outcome(text, chunks), one) << chunks << " chunks";
  }
}

TEST(ParserRobustness, TruncationsNeverCrash) {
  const std::string text = sample_netlist();
  for (const double frac : {0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99}) {
    expect_parse_or_clean_error(
        text.substr(0, static_cast<std::size_t>(text.size() * frac)));
  }
}

TEST(ParserRobustness, EveryPrefixTruncationParsesOrFailsCleanly) {
  const std::string text = tiny_netlist();
  ASSERT_GE(text.size(), 2000u);
  ASSERT_LE(text.size(), 4096u);
  for (std::size_t len = 0; len <= text.size(); ++len) {
    expect_parse_or_clean_error(text.substr(0, len));
  }
}

TEST(ParserRobustness, EndOfBufferTokens) {
  expect_clean_error_at_line("module top ();\nendmodule\n\\", 3);     // '\' at EOF
  expect_clean_error_at_line("module top ();\n  HIDAP_COMB g (.I0(-", 2);  // '-' at EOF
  expect_clean_error_at_line("module top ();\n/* never\nclosed", 3);     // open comment
  std::string nul = "module top ();\n  HIDAP_COMB ab";
  nul += '\0';
  nul += "cd ();\nendmodule\n";
  expect_clean_error_at_line(nul, 2);
  // A //HIDAP_ directive ending the buffer without a newline still counts.
  const Design d = parse_verilog_string("module top ();\nendmodule\n//HIDAP_DIE 10 20");
  EXPECT_DOUBLE_EQ(d.die().w, 10.0);
  EXPECT_DOUBLE_EQ(d.die().h, 20.0);
  expect_clean_error_at_line("//HIDAP_DIE", 0);  // directives alone: empty netlist
}

// A range is bit-blasted into one net per bit: widths beyond the input
// size used to allocate for tens of seconds, and a huge real bound went
// through an undefined double->int cast.
TEST(ParserRobustness, HostileVectorRangesRejected) {
  expect_clean_error_at_line("module top (); wire [50000000:0] w; endmodule", 1);
  expect_clean_error_at_line("module top (); wire [1e300:0] w; endmodule", 1);
  expect_clean_error_at_line("module top ();\n wire [3.0:0] w; endmodule", 2);
  expect_clean_error_at_line("module top ();\n\n wire [2147483648:0] w; endmodule", 3);
  expect_clean_error_at_line(
      "module top ();\n wire [3:0] w;\n HIDAP_COMB g (.I0(w[-1]));\nendmodule", 3);
  // Within the input size a wide range is fine.
  const Design d = parse_verilog_string("module top (); wire [20:0] w; endmodule");
  EXPECT_EQ(d.net_count(), 21u);
}

TEST(ParserRobustness, RecursiveInstantiationRejected) {
  expect_clean_error_at_line(
      "module top (); a u (); endmodule\nmodule a (); b u (); endmodule\n"
      "module b ();\n a u (); endmodule\n",
      4);
}

TEST(ParserRobustness, DuplicateMacroRejected) {
  expect_clean_error_at_line(
      "//HIDAP_MACRO RAM 2 2\n//HIDAP_MACRO RAM 3 3\nmodule top (); endmodule\n", 2);
}

// A net wired to two outputs fails at the second driver's instance
// line, for primitives, macro output pins and drivers reached through a
// module port alike.
TEST(ParserRobustness, SecondDriverRejectedAtItsInstance) {
  expect_clean_error_at_line(
      "module top ();\n wire a;\n HIDAP_DFF r0 (.Q0(a));\n HIDAP_COMB g (.I0(a));\n"
      " HIDAP_COMB g2 (.O0(a));\nendmodule\n",
      5);
  expect_clean_error_at_line(
      "module top ();\n wire a;\n HIDAP_COMB g (.O0(a), .O1(a));\nendmodule\n", 3);
  expect_clean_error_at_line(
      "//HIDAP_MACRO RAM 4 4\n//HIDAP_PIN RAM Q 4 2 8 1\nmodule top ();\n wire a;\n"
      " HIDAP_DFF r0 (.Q0(a));\n RAM mem (.Q(a));\nendmodule\n",
      6);
  expect_clean_error_at_line(
      "module child (o);\n output o;\n HIDAP_COMB g (.O0(o));\nendmodule\n"
      "module top ();\n wire a;\n HIDAP_DFF r0 (.Q0(a));\n child u (.o(a));\nendmodule\n",
      3);
  // One driver and any number of sinks is fine.
  const Design d = parse_verilog_string(
      "module top ();\n wire a;\n HIDAP_DFF r0 (.Q0(a));\n HIDAP_COMB g (.I0(a), .I1(a));\n"
      "endmodule\n");
  EXPECT_TRUE(d.validate().empty()) << d.validate();
  ASSERT_EQ(d.net_count(), 1u);
  EXPECT_EQ(d.driver(0).cell, 0);
  EXPECT_EQ(d.sinks(0).size(), 2u);
}

class ParserFuzz : public ::testing::TestWithParam<int> {};

TEST_P(ParserFuzz, RandomByteMutations) {
  std::string text = sample_netlist();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 2654435761ULL + 17);
  // Mutate 12 random positions: replace with random printable bytes.
  for (int m = 0; m < 12; ++m) {
    const std::size_t at = rng.next_below(text.size());
    text[at] = static_cast<char>(' ' + rng.next_below(94));
  }
  expect_parse_or_clean_error(text);
  expect_chunked_matches_one(text);
}

TEST_P(ParserFuzz, RandomLineDeletions) {
  std::string text = sample_netlist();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 40503ULL + 3);
  std::istringstream in(text);
  std::ostringstream kept;
  std::string line;
  while (std::getline(in, line)) {
    if (rng.next_double() > 0.08) kept << line << '\n';
  }
  expect_parse_or_clean_error(kept.str());
  expect_chunked_matches_one(kept.str());
}

// A duplicated instance line double-drives its output nets, so this leg
// exercises the second-driver check as well as repeated declarations.
TEST_P(ParserFuzz, RandomLineDuplications) {
  std::string text = sample_netlist();
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 69069ULL + 5);
  std::istringstream in(text);
  std::ostringstream mutated;
  std::string line;
  while (std::getline(in, line)) {
    mutated << line << '\n';
    if (rng.next_double() < 0.08) mutated << line << '\n';
  }
  expect_parse_or_clean_error(mutated.str());
  expect_chunked_matches_one(mutated.str());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzz, ::testing::Range(1, 17));

// Each module instantiates the next twice, 40 levels deep: 2^39 cells.
// The count per definition refuses it at the instance that takes the
// cell count past the int32 id range (m8's second instance, 2^31 cells),
// before anything is allocated and without visiting 2^40 instances.
TEST(ParserRobustness, ExponentialHierarchyRefused) {
  std::string text;
  for (int i = 0; i < 39; ++i) {
    const std::string next = "m" + std::to_string(i + 1);
    text += "module m" + std::to_string(i) + " ();\n  " + next + " a ();\n  " + next +
            " b ();\nendmodule\n";
  }
  text += "module m39 ();\n  HIDAP_COMB g ();\nendmodule\n";
  const auto start = std::chrono::steady_clock::now();
  try {
    parse_verilog_string(text);
    ADD_FAILURE() << "a 2^39-cell design parsed";
  } catch (const VerilogParseError& e) {
    EXPECT_EQ(e.line(), 4 * 8 + 3) << e.what();
    EXPECT_NE(std::string(e.what()).find("2147483647"), std::string::npos) << e.what();
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(1));
}

// ------------------------------------------------------------ chunk cuts
// A cut goes at the first line starting with "module " at or after each
// of k equal byte offsets. Each fixture below puts more bytes before its
// interesting line than after it, so at 2 chunks the cut lands there.

std::string padding() { return "// " + std::string(400, '.') + "\n"; }

/// verilog_lex spans of one parse at `chunks` chunks: one per chunk,
/// plus one when the chunks are dropped and the text is parsed whole.
std::size_t lexes(const std::string& text, int chunks) {
  obs::set_tracing_enabled(true);
  obs::Tracer::instance().clear();
  parse_outcome(text, chunks);
  std::size_t n = 0;
  for (const obs::TraceEvent& e : obs::Tracer::instance().collect()) {
    n += std::string_view(e.name) == "verilog_lex";
  }
  obs::set_tracing_enabled(false);
  return n;
}

TEST(ChunkCuts, ModuleInsideCommentAcrossCut) {
  const std::string text = "module top ();\n" + padding() + "  a u0 ();\nendmodule\n/* hides\n" +
                           "module x ();\nendmodule\n*/\nmodule a ();\nendmodule\n";
  expect_chunked_matches_one(text);
  EXPECT_EQ(lexes(text, 2), 3u);  // the open comment drops the chunks
  EXPECT_EQ(parse_outcome(text, 1).error, "");
}

TEST(ChunkCuts, BlockCommentClosedInLineComment) {
  const std::string text = "module top ();\n" + padding() +
                           "  a u0 ();\nendmodule\n/* closed by\n// */\nmodule a ();\nendmodule\n";
  expect_chunked_matches_one(text);
  EXPECT_EQ(lexes(text, 2), 2u);
  EXPECT_EQ(parse_outcome(text, 1).error, "");
  // "/*" inside a line comment opens nothing.
  const std::string line = "module top ();\n" + padding() + "  a u0 ();\nendmodule\n// /*\n" +
                           "module a ();\nendmodule\n";
  expect_chunked_matches_one(line);
  EXPECT_EQ(lexes(line, 2), 2u);
}

TEST(ChunkCuts, UnterminatedCommentAtEnd) {
  const std::string text =
      "module top ();\n" + padding() + "endmodule\n/* never closed\nmodule x ();\nendmodule\n";
  expect_chunked_matches_one(text);
  EXPECT_EQ(lexes(text, 2), 3u);
  EXPECT_EQ(parse_outcome(text, 1).error, "");  // a comment may run to the end
}

TEST(ChunkCuts, FirstErrorInTheFileWins) {
  const std::string text =
      "module top ();\n  a u0 ();\n  b u1 ();\nendmodule\nmodule a ();\n"
      "  HIDAP_COMB g (.I0(x)) oops;\nendmodule\n" + padding() + "module b ();\n"
      "  HIDAP_COMB g (.I0(y)) worse;\nendmodule\n";
  expect_chunked_matches_one(text);
  EXPECT_EQ(lexes(text, 2), 3u);  // both chunks fail, then the whole text
  for (const int chunks : {1, 2, 3, 7}) {
    EXPECT_EQ(parse_outcome(text, chunks).line, 6) << chunks << " chunks";
  }
}

TEST(ChunkCuts, CrlfLineEndings) {
  const std::string lf = tiny_netlist();
  std::string crlf;
  for (const char c : lf) {
    if (c == '\n') crlf += '\r';
    crlf += c;
  }
  expect_chunked_matches_one(crlf);
  EXPECT_EQ(parse_outcome(crlf, 2), parse_outcome(lf, 1));
  EXPECT_EQ(lexes(crlf, 2), 2u);
}

TEST(ChunkCuts, EscapedIdentifierBeforeCut) {
  const std::string text = "module top ();\n" + padding() +
                           "  a u0 ();\n  HIDAP_COMB \\g[0] ();\n\\endmodule\n" +
                           "module a ();\nendmodule\n";
  expect_chunked_matches_one(text);
  EXPECT_EQ(lexes(text, 2), 2u);
  EXPECT_EQ(parse_outcome(text, 1).error, "");
}

TEST(ParserRobustness, DeepNestingBounded) {
  // A module chain 64 deep elaborates fine (recursion is depth-bounded by
  // the hierarchy, not the token stream).
  std::string text;
  for (int i = 63; i >= 1; --i) {
    text += "module m" + std::to_string(i) + " ();\n";
    if (i < 63) text += "  m" + std::to_string(i + 1) + " u ();\n";
    text += "endmodule\n";
  }
  const Design d = parse_verilog_string(text);
  EXPECT_EQ(d.hier_count(), 63u);
}

TEST(ParserRobustness, HugeTokenHandled) {
  std::string name(5000, 'x');
  const Design d =
      parse_verilog_string("module top ();\n  HIDAP_COMB " + name + " ();\nendmodule\n");
  EXPECT_EQ(d.cell_name(0).size(), 5000u);
}

// An instance name whose bit suffix overflows an int parses, and the
// placement context built on it treats the cell as its own array instead
// of failing with an untyped std::out_of_range.
TEST(ParserRobustness, OversizeBitSuffixBuildsContext) {
  const Design d = parse_verilog_string(
      "module top ();\n  wire a;\n  HIDAP_PIN_IN #(.X(0), .Y(1)) p (.O0(a));\n"
      "  HIDAP_DFF #(.AREA(2)) r_99999999999 (.D0(a));\nendmodule\n");
  ASSERT_EQ(d.cell_count(), 2u);
  EXPECT_EQ(d.cell_name(1), "r_99999999999");
  const PlacementContext context(d);
  EXPECT_EQ(context.seq.node_of_cell(1), kInvalidId);  // a 1-bit register is below the threshold
  EXPECT_NE(context.seq.node_of_cell(0), kInvalidId);  // the port is a Gseq node
}

TEST(ParserRobustness, GarbageRejected) {
  expect_parse_or_clean_error("%%%###!!!");
  expect_parse_or_clean_error("module module module");
  expect_parse_or_clean_error("module a (); HIDAP_COMB g (.I0(");
}

}  // namespace
}  // namespace hidap
