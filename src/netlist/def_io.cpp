#include "netlist/def_io.hpp"

#include <cctype>
#include <cmath>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <unordered_map>

#include "util/failpoint.hpp"
#include "util/log.hpp"
#include "util/string_utils.hpp"

namespace hidap {

namespace {

long to_db(double microns, int upm) { return std::lround(microns * upm); }

// Whitespace-delimited tokenizer that tracks the 1-based source line of
// the token it last produced, so every parse failure can say where
// (DefParseError), like VerilogParseError does for netlists.
class DefTokens {
 public:
  explicit DefTokens(std::istream& in) : in_(in) {}

  /// Next token, or false at EOF.
  bool next(std::string& token) {
    token.clear();
    int c;
    while ((c = in_.get()) != std::istream::traits_type::eof()) {
      if (c == '\n') {
        ++line_;
        if (!token.empty()) return true;
      } else if (std::isspace(static_cast<unsigned char>(c)) != 0) {
        if (!token.empty()) return true;
      } else {
        if (token.empty()) token_line_ = line_;
        token.push_back(static_cast<char>(c));
      }
    }
    return !token.empty();
  }

  /// Line the last token started on (or the current line at EOF).
  int line() const { return token_line_; }

  [[noreturn]] void fail(const std::string& msg) const {
    throw DefParseError(msg, token_line_);
  }

 private:
  std::istream& in_;
  int line_ = 1;
  int token_line_ = 1;
};

Orientation orientation_from_string(const std::string& s, const DefTokens& tokens) {
  for (const Orientation o : kAllOrientations) {
    if (to_string(o) == s) return o;
  }
  throw DefParseError("unknown orientation '" + s + "'", tokens.line());
}

}  // namespace

void write_def(const Design& design, const PlacementResult& placement,
               std::ostream& out, const DefWriteOptions& options) {
  const int upm = options.units_per_micron;
  out << "VERSION 5.8 ;\n";
  out << "DESIGN " << design.name() << " ;\n";
  out << "UNITS DISTANCE MICRONS " << upm << " ;\n";
  out << "DIEAREA ( 0 0 ) ( " << to_db(design.die().w, upm) << ' '
      << to_db(design.die().h, upm) << " ) ;\n";

  out << "COMPONENTS " << placement.macros.size() << " ;\n";
  for (const MacroPlacement& m : placement.macros) {
    out << "- " << design.cell_path(m.cell) << ' ' << design.macro_def_of(m.cell).name
        << "\n  + PLACED ( " << to_db(m.rect.x, upm) << ' ' << to_db(m.rect.y, upm)
        << " ) " << to_string(m.orientation) << " ;\n";
  }
  out << "END COMPONENTS\n";

  if (options.include_pins) {
    const std::vector<CellId>& ports = design.ports();
    out << "PINS " << ports.size() << " ;\n";
    for (const CellId p : ports) {
      const Cell& cell = design.cell(p);
      const Point pos = cell.fixed_pos.value_or(Point{});
      out << "- " << design.cell_path(p) << " + NET " << design.cell_path(p)
          << " + DIRECTION " << (cell.kind == CellKind::PortIn ? "INPUT" : "OUTPUT")
          << "\n  + PLACED ( " << to_db(pos.x, upm) << ' ' << to_db(pos.y, upm)
          << " ) N ;\n";
    }
    out << "END PINS\n";
  }
  out << "END DESIGN\n";
}

void write_def_file(const Design& design, const PlacementResult& placement,
                    const std::string& path, const DefWriteOptions& options) {
  HIDAP_FAILPOINT("netlist.def_write");
  std::ofstream out(path);
  if (!out) throw HidapError(ErrorCode::IoError, "cannot write " + path);
  write_def(design, placement, out, options);
  if (!out) throw HidapError(ErrorCode::IoError, "cannot write " + path);
  out.close();
  if (!out) throw HidapError(ErrorCode::IoError, "cannot close " + path);
}

DefContents parse_def(std::istream& in) {
  HIDAP_FAILPOINT("netlist.def_parse");
  DefContents def;
  int upm = 1000;
  DefTokens tokens(in);
  std::string token;
  const auto expect = [&](const char* what) {
    if (!tokens.next(token)) tokens.fail(std::string("expected ") + what);
    return token;
  };
  const auto expect_int = [&](const char* what) {
    const std::string& text = expect(what);
    try {
      std::size_t used = 0;
      const int value = std::stoi(text, &used);
      if (used != text.size()) tokens.fail(std::string("bad ") + what + " '" + text + "'");
      return value;
    } catch (const DefParseError&) {
      throw;
    } catch (const std::exception&) {
      tokens.fail(std::string("bad ") + what + " '" + text + "'");
    }
  };
  const auto expect_num = [&](const char* what) {
    const std::string& text = expect(what);
    try {
      std::size_t used = 0;
      const double value = std::stod(text, &used);
      if (used != text.size()) tokens.fail(std::string("bad ") + what + " '" + text + "'");
      return value;
    } catch (const DefParseError&) {
      throw;
    } catch (const std::exception&) {
      tokens.fail(std::string("bad ") + what + " '" + text + "'");
    }
  };
  while (tokens.next(token)) {
    if (token == "DESIGN") {
      def.design_name = expect("design name");
    } else if (token == "UNITS") {
      expect("DISTANCE");
      expect("MICRONS");
      upm = expect_int("units");
      if (upm <= 0) tokens.fail("units must be positive");
    } else if (token == "DIEAREA") {
      expect("(");
      const double x0 = expect_num("x0");
      const double y0 = expect_num("y0");
      expect(")");
      expect("(");
      const double x1 = expect_num("x1");
      const double y1 = expect_num("y1");
      def.die = Rect{x0 / upm, y0 / upm, (x1 - x0) / upm, (y1 - y0) / upm};
    } else if (token == "COMPONENTS") {
      const int count = expect_int("component count");
      expect(";");
      for (int i = 0; i < count; ++i) {
        if (expect("-") != "-") tokens.fail("expected '-'");
        DefComponent comp;
        comp.name = expect("component name");
        comp.def_name = expect("def name");
        // Scan for "+ PLACED ( x y ) ORIENT ;"
        while (expect("PLACED or +") != "PLACED") {
          if (token == ";") tokens.fail("component without PLACED");
        }
        expect("(");
        comp.location.x = expect_num("x") / upm;
        comp.location.y = expect_num("y") / upm;
        expect(")");
        comp.orientation = orientation_from_string(expect("orientation"), tokens);
        expect(";");
        def.components.push_back(std::move(comp));
      }
    } else if (token == "END") {
      expect("section name");  // COMPONENTS / PINS / DESIGN
    }
    // Everything else (PINS payload etc.) is skipped token-wise.
  }
  return def;
}

DefContents parse_def_file(const std::string& path) {
  HIDAP_FAILPOINT("netlist.def_read");
  std::ifstream in(path);
  if (!in) throw HidapError(ErrorCode::IoError, "cannot read " + path);
  return parse_def(in);
}

std::size_t apply_def_placement(const Design& design, const DefContents& def,
                                PlacementResult& placement) {
  std::unordered_map<std::string, CellId> by_path;
  for (const CellId m : design.macros()) by_path.emplace(design.cell_path(m), m);

  placement.macros.clear();
  for (const DefComponent& comp : def.components) {
    const auto it = by_path.find(comp.name);
    if (it == by_path.end()) {
      HIDAP_LOG_WARN("DEF: unknown component '%s' skipped", comp.name.c_str());
      continue;
    }
    const MacroDef& mdef = design.macro_def_of(it->second);
    const Point size = oriented_size(mdef.w, mdef.h, comp.orientation);
    placement.macros.push_back(MacroPlacement{
        it->second, Rect{comp.location.x, comp.location.y, size.x, size.y},
        comp.orientation});
  }
  placement.flow_name = "DEF";
  return placement.macros.size();
}

}  // namespace hidap
