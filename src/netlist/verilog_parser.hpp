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
//
// Chunked lexing: the buffer is cut at lines that start with "module "
// into up to one chunk per lane of ThreadPool::global() (none smaller
// than 128 KB), and the chunks are lexed in parallel, each into its own
// AST. Elaboration walks the chunks' modules in source order, so the
// Design is bit-identical at any lane count. The chunks are accepted
// only if every one parsed and every one but the last ended outside a
// block comment; otherwise the whole buffer is parsed again as one
// chunk, which is the sequential parse, so error messages, line numbers
// and accepted inputs never depend on the cuts.
//
// Before allocating, elaboration counts the cells, nets and pins it will
// create once per module definition, and refuses a hierarchy whose
// counts leave the int32 id range at the instance that crosses it.

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

namespace detail {
/// parse_verilog_string with the chunk count given instead of derived
/// from the pool width and the input size; for tests that pit chunked
/// parses against one chunk.
Design parse_verilog_chunks(std::string_view text, int chunks);
}  // namespace detail

/// Reads a file into one buffer and parses it; throws HidapError
/// (ErrorCode::IoError) when the file cannot be read.
Design parse_verilog_file(const std::string& path);

}  // namespace hidap
