#pragma once
// Digests of parsed designs and parse outcomes, shared by the Verilog
// parser suites.

#include <bit>
#include <cstdint>
#include <ostream>
#include <span>
#include <string>
#include <string_view>

#include "netlist/netlist.hpp"
#include "netlist/verilog_parser.hpp"

namespace hidap {

// Field-by-field digest of a parsed Design: every Cell, net and NetPin,
// HierNode (with its cells_of range), MacroDef/MacroPin and Die field in
// id order, floating-point values by bit pattern. Self-contained FNV-1a so the pinned values do
// not move when util/hash.hpp changes.
class DesignDigest {
 public:
  explicit DesignDigest(const Design& d) {
    str(d.name());
    f64(d.die().w);
    f64(d.die().h);
    u64(d.library().size());
    for (const MacroDef& def : d.library().defs()) {
      str(def.name);
      f64(def.w);
      f64(def.h);
      u64(def.pins.size());
      for (const MacroPin& pin : def.pins) {
        str(pin.name);
        f64(pin.offset.x);
        f64(pin.offset.y);
        i64(pin.bits);
        u64(pin.is_output ? 1 : 0);
      }
    }
    u64(d.hier_count());
    for (std::size_t h = 0; h < d.hier_count(); ++h) {
      const HierNode& node = d.hier(static_cast<HierId>(h));
      str(node.name);
      i64(node.parent);
      u64(node.children.size());
      for (const HierId child : node.children) i64(child);
      const std::span<const CellId> cells = d.cells_of(static_cast<HierId>(h));
      u64(cells.size());
      for (const CellId cell : cells) i64(cell);
    }
    u64(d.cell_count());
    for (std::size_t id = 0; id < d.cell_count(); ++id) {
      const Cell& cell = d.cell(static_cast<CellId>(id));
      str(d.cell_name(static_cast<CellId>(id)));
      u64(static_cast<std::uint64_t>(cell.kind));
      i64(cell.hier);
      f64(cell.area);
      i64(cell.macro_def);
      u64(cell.fixed_pos.has_value() ? 1 : 0);
      if (cell.fixed_pos) {
        f64(cell.fixed_pos->x);
        f64(cell.fixed_pos->y);
      }
    }
    u64(d.net_count());
    for (std::size_t id = 0; id < d.net_count(); ++id) {
      const auto net = static_cast<NetId>(id);
      str(d.net_name(net));
      pin(d.driver(net));
      u64(d.sinks(net).size());
      for (const NetPin& sink : d.sinks(net)) pin(sink);
    }
  }

  std::uint64_t value() const { return h_; }

 private:
  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void f32(float v) { u64(std::bit_cast<std::uint32_t>(v)); }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  void pin(const NetPin& p) {
    i64(p.cell);
    f32(p.dx);
    f32(p.dy);
  }

  std::uint64_t h_ = 1469598103934665603ull;
};

/// What parsing a text gives: the design's digest, or the error's
/// message and line.
struct ParseOutcome {
  std::uint64_t digest = 0;
  std::string error;
  int line = 0;
  bool operator==(const ParseOutcome&) const = default;
};

inline std::ostream& operator<<(std::ostream& os, const ParseOutcome& o) {
  if (o.error.empty()) return os << "digest 0x" << std::hex << o.digest << std::dec;
  return os << "error at line " << o.line << ": " << o.error;
}

/// The outcome of parsing `text` cut into at most `chunks` chunks.
inline ParseOutcome parse_outcome(std::string_view text, int chunks) {
  try {
    return {DesignDigest(detail::parse_verilog_chunks(text, chunks)).value(), {}, 0};
  } catch (const VerilogParseError& e) {
    return {0, e.what(), e.line()};
  }
}

}  // namespace hidap
