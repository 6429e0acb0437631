#pragma once
// Parser for the hidap structural-Verilog subset (see verilog_writer.hpp).
//
// Supports: module definitions with port lists, input/output/wire
// declarations (scalar and [msb:lsb] vectors), primitive and module
// instances with named connections (.pin(net) / .pin(net[idx]) / .pin()),
// instance parameter lists #(.KEY(value)), and the //HIDAP_MACRO /
// //HIDAP_PIN / //HIDAP_DIE comment headers carrying macro geometry.
//
// The top module is the one never instantiated; it is elaborated
// recursively into a flattened Design with a hierarchy tree mirroring the
// instance tree.
//
// The lexer runs over one contiguous buffer and the AST holds views into
// it; each module definition gets one name->slot net table, and every
// instance binds its nets in a vector indexed by slot. Range bounds and
// bit indices are non-negative int32 decimals, and a declared range
// wider than the input's byte count is rejected.

#include <string>
#include <string_view>

#include "netlist/netlist.hpp"
#include "util/error.hpp"

namespace hidap {

/// Typed as ErrorCode::ParseError in the structured taxonomy
/// (util/error.hpp), so services map it to a machine-readable code.
class VerilogParseError : public HidapError {
 public:
  VerilogParseError(const std::string& msg, int line)
      : HidapError(ErrorCode::ParseError, "verilog parse error at line " +
                                              std::to_string(line) + ": " + msg),
        line_(line) {}
  int line() const { return line_; }

 private:
  int line_;
};

/// Parses a netlist held in memory; throws VerilogParseError on malformed
/// input. The Design copies every name it keeps, so `text` need only
/// outlive the call.
Design parse_verilog_string(std::string_view text);

/// Reads a file into one buffer and parses it; throws HidapError
/// (ErrorCode::IoError) when the file cannot be read.
Design parse_verilog_file(const std::string& path);

}  // namespace hidap
