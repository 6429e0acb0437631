#pragma once
// DEF-style placement exchange.
//
// Writes and reads the subset of DEF needed to hand a macro placement to
// or from another tool: DESIGN, UNITS, DIEAREA, COMPONENTS (with PLACED
// location + orientation) and PINS (port locations). Locations use the
// conventional DEF integer database units (microns * units_per_micron).

#include <iosfwd>
#include <string>
#include <vector>

#include "core/result.hpp"
#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace hidap {

/// Malformed-DEF error carrying the 1-based source line, mirroring
/// VerilogParseError; typed ErrorCode::ParseError in the taxonomy.
class DefParseError : public HidapError {
 public:
  DefParseError(const std::string& msg, int line)
      : HidapError(ErrorCode::ParseError,
                   "DEF parse error at line " + std::to_string(line) + ": " + msg),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

struct DefWriteOptions {
  int units_per_micron = 1000;
  bool include_pins = true;
};

/// Writes the die, all placed macros and the port locations.
void write_def(const Design& design, const PlacementResult& placement,
               std::ostream& out, const DefWriteOptions& options = {});
/// Throws HidapError(IoError) naming the path when the file cannot be
/// opened, written or closed (a full disk included).
void write_def_file(const Design& design, const PlacementResult& placement,
                    const std::string& path, const DefWriteOptions& options = {});

/// A parsed DEF component row.
struct DefComponent {
  std::string name;      ///< hierarchical cell path
  std::string def_name;  ///< macro def name
  Point location;        ///< microns
  Orientation orientation = Orientation::R0;
};

struct DefContents {
  std::string design_name;
  Rect die;
  std::vector<DefComponent> components;
};

/// Parses the subset written by write_def; throws DefParseError (with
/// the offending line number) on malformed input and HidapError
/// (ErrorCode::IoError) when the file cannot be read.
DefContents parse_def(std::istream& in);
DefContents parse_def_file(const std::string& path);

/// Re-binds parsed components to a design by hierarchical cell path.
/// Components naming unknown cells are skipped (returned count = bound).
std::size_t apply_def_placement(const Design& design, const DefContents& def,
                                PlacementResult& placement);

}  // namespace hidap
