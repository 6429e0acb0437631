#pragma once
// Structural-Verilog writer for hidap designs.
//
// The emitted subset ("hidap structural verilog") is plain gate-level
// Verilog with these primitives:
//   HIDAP_COMB #(.AREA(a))  (.I0(..), .I1(..), ..., .O0(..))
//   HIDAP_DFF  #(.AREA(a))  (.D0(..), ..., .Q0(..), ...)
//   HIDAP_PIN_IN  #(.X(x), .Y(y)) (.O0(..))   // top-level input pad
//   HIDAP_PIN_OUT #(.X(x), .Y(y)) (.I0(..))   // top-level output pad
//   <macro def name>        (.<pin name>(..), ...)
// plus one uniquified module per hierarchy node. Nets are declared at the
// lowest common ancestor of their pins and exported through module ports
// where they cross hierarchy boundaries, so the RTL hierarchy survives a
// write/parse round trip bit-exactly.
//
// Format guarantee: every double (areas, port positions, macro and die
// geometry) is written as `%.12g` in the C locale (std::to_chars,
// general format, precision 12), integers and net ids in plain decimal.
// The output depends on the design only: not on the stream's flags,
// precision or locale, and the writer changes none of them. Contiguous
// runs of modules and cells are formatted as tasks on the pool, a
// bounded round at a time, each into a buffer of its own, and handed
// to the stream with ostream::write in file order, so the writer's
// memory grows with the pool's lanes, not with the design.

#include <iosfwd>
#include <string>

#include "netlist/netlist.hpp"

namespace hidap {

class ThreadPool;

/// Writes the whole design (including macro definitions as a comment
/// header consumed by the parser) to `out`, formatting on
/// ThreadPool::global(), or on `pool`; the bytes do not depend on the
/// pool's size. A failing stream is not checked here; its state tells
/// the caller.
void write_verilog(const Design& design, std::ostream& out);
void write_verilog(const Design& design, std::ostream& out, ThreadPool& pool);

/// Writes to a file. Throws HidapError(IoError) naming the path when the
/// file cannot be opened, written or closed (a full disk included).
void write_verilog_file(const Design& design, const std::string& path);

}  // namespace hidap
