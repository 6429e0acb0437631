#include "netlist/verilog_writer.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <ostream>
#include <span>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/csr.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace hidap {

namespace {

// Direction of a net seen from a hierarchy node's boundary.
enum class PortDir { In, Out };

struct ModulePlan {
  std::vector<std::pair<NetId, PortDir>> ports;  // nets crossing the boundary
  std::vector<NetId> wires;                      // nets declared here (LCA)
};

HierId lca(const Design& d, HierId a, HierId b, const std::vector<int>& depth) {
  while (a != b) {
    if (depth[static_cast<std::size_t>(a)] >= depth[static_cast<std::size_t>(b)]) {
      a = d.hier(a).parent;
    } else {
      b = d.hier(b).parent;
    }
  }
  return a;
}

// Finds, for every hierarchy node, which nets must become ports and which
// are declared locally.
std::vector<ModulePlan> plan_modules(const Design& d) {
  std::vector<ModulePlan> plans(d.hier_count());
  std::vector<int> depth(d.hier_count(), 0);  // a parent's id is below its children's
  for (std::size_t h = 1; h < d.hier_count(); ++h) {
    depth[h] = depth[static_cast<std::size_t>(d.hier(static_cast<HierId>(h)).parent)] + 1;
  }
  for (std::size_t i = 0; i < d.net_count(); ++i) {
    const auto net = static_cast<NetId>(i);
    const std::span<const NetPin> pins = d.pins(net);
    if (pins.empty()) continue;
    // LCA of all pin hier nodes.
    HierId anchor = d.cell(pins.front().cell).hier;
    for (const NetPin& p : pins.subspan(1)) anchor = lca(d, anchor, d.cell(p.cell).hier, depth);
    plans[static_cast<std::size_t>(anchor)].wires.push_back(net);
    // Every node on each pin's hier chain below the LCA needs a port for
    // this net. Nets are planned in order, so a node that already has
    // one holds it last.
    for (std::size_t k = 0; k < pins.size(); ++k) {
      for (HierId h = d.cell(pins[k].cell).hier; h != anchor; h = d.hier(h).parent) {
        auto& ports = plans[static_cast<std::size_t>(h)].ports;
        if (ports.empty() || ports.back().first != net) ports.emplace_back(net, PortDir::In);
        if (k == 0 && d.has_driver(net)) ports.back().second = PortDir::Out;
      }
    }
  }
  return plans;
}

// One connection of a cell. A macro's label is the index of its def pin
// (-1 when no pin sits at the offset); any other cell's is 1 when it
// drives the net and 0 when it sinks it.
struct Conn {
  NetId net;
  std::int32_t label;
};

// Index of the macro pin at a connection's geometric offset. NetPin
// stores offsets as float, MacroDef as double: match the nearest pin
// within a loose micron tolerance (pin pitches are far larger).
std::int32_t macro_pin_index(const MacroDef& def, float dx, float dy) {
  std::int32_t best = -1;
  double best_d2 = 1e-2;  // 0.1 um in each axis, squared
  for (std::size_t i = 0; i < def.pins.size(); ++i) {
    const double ex = def.pins[i].offset.x - dx;
    const double ey = def.pins[i].offset.y - dy;
    const double d2 = ex * ex + ey * ey;
    if (d2 < best_d2) {
      best_d2 = d2;
      best = static_cast<std::int32_t>(i);
    }
  }
  return best;
}

// Every cell's connections in net order, then pin order within a net.
Csr<Conn> cell_connections(const Design& d) {
  return Csr<Conn>::group(d.cell_count(), [&d](auto&& emit) {
    for (std::size_t n = 0; n < d.net_count(); ++n) {
      const auto net = static_cast<NetId>(n);
      const std::span<const NetPin> pins = d.pins(net);
      const bool driven = d.has_driver(net);
      for (std::size_t i = 0; i < pins.size(); ++i) {
        const NetPin& p = pins[i];
        const bool macro = d.cell(p.cell).kind == CellKind::Macro;
        const std::int32_t label =
            macro ? macro_pin_index(d.macro_def_of(p.cell), p.dx, p.dy) : (driven && i == 0);
        emit(static_cast<std::size_t>(p.cell), Conn{net, label});
      }
    }
  });
}

// The byte an identifier keeps: ASCII letters, digits and '_' stay, any
// other byte becomes '_'.
constexpr std::array<char, 256> kIdentByte = [] {
  std::array<char, 256> table{};
  for (int c = 0; c < 256; ++c) {
    const bool keep = (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
                      (c >= 'a' && c <= 'z') || c == '_';
    table[static_cast<std::size_t>(c)] = keep ? static_cast<char>(c) : '_';
  }
  return table;
}();

// Formats into a buffer of its own that grows to the largest text it
// is given between clear() calls (one task's range), so no token is
// built as a string.
class BlockWriter {
 public:
  BlockWriter& operator<<(std::string_view s) {
    std::memcpy(room(s.size()), s.data(), s.size());
    used_ += s.size();
    return *this;
  }
  /// A literal: its length is known at compile time.
  template <std::size_t N>
  BlockWriter& operator<<(const char (&s)[N]) {
    return *this << std::string_view(s, N - 1);
  }
  BlockWriter& operator<<(char c) {
    *room(1) = c;
    ++used_;
    return *this;
  }
  /// `%.12g`, which is what `<<` prints under setprecision(12). The
  /// last value's text is kept: cells of one library size repeat their
  /// area, and formatting costs far more than the compare.
  BlockWriter& operator<<(double v) {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(v);
    if (bits != last_bits_ || last_size_ == 0) {
      last_size_ = static_cast<std::size_t>(
          std::to_chars(last_text_, last_text_ + kMaxNumber, v, std::chars_format::general, 12)
              .ptr -
          last_text_);
      last_bits_ = bits;
    }
    return *this << std::string_view(last_text_, last_size_);
  }
  BlockWriter& operator<<(int v) {
    char* first = room(kMaxNumber);
    used_ = static_cast<std::size_t>(std::to_chars(first, first + kMaxNumber, v).ptr - buf_.get());
    return *this;
  }

  /// `name` as a Verilog identifier: every byte through kIdentByte, and
  /// a leading '_' when it is empty or starts with a digit.
  void identifier(std::string_view name) {
    if (name.empty() || (name[0] >= '0' && name[0] <= '9')) *this << '_';
    char* out = room(name.size());
    for (std::size_t i = 0; i < name.size(); ++i) {
      out[i] = kIdentByte[static_cast<unsigned char>(name[i])];
    }
    used_ += name.size();
  }
  void net(NetId id) { *this << 'n' << id; }

  std::string_view text() const { return {buf_.get(), used_}; }
  void clear() { used_ = 0; }

 private:
  static constexpr std::size_t kInitial = 64 * 1024;
  static constexpr std::size_t kMaxNumber = 32;  // longest %.12g double or int

  char* room(std::size_t n) {
    if (capacity_ - used_ < n) {
      capacity_ = std::max({kInitial, 2 * capacity_, used_ + n});
      std::unique_ptr<char[]> grown(new char[capacity_]);
      if (used_ > 0) std::memcpy(grown.get(), buf_.get(), used_);
      buf_ = std::move(grown);
    }
    return buf_.get() + used_;
  }

  std::unique_ptr<char[]> buf_;
  std::size_t capacity_ = 0;
  std::size_t used_ = 0;
  std::uint64_t last_bits_ = 0;
  std::size_t last_size_ = 0;  // 0: nothing formatted yet
  char last_text_[kMaxNumber] = {};
};

void write_module_name(BlockWriter& w, const Design& d, HierId h) {
  if (h == d.root()) {
    w.identifier(d.name());
  } else {
    w.identifier(d.hier(h).name);
    w << "_h" << h;
  }
}

void write_macro_header(BlockWriter& w, const Design& d) {
  // Macro definitions ride along as structured comments the parser reads
  // back, keeping a netlist file self-contained.
  for (const MacroDef& def : d.library().defs()) {
    w << "//HIDAP_MACRO " << def.name << ' ' << def.w << ' ' << def.h << '\n';
    for (const MacroPin& p : def.pins) {
      w << "//HIDAP_PIN " << def.name << ' ' << p.name << ' ' << p.offset.x << ' ' << p.offset.y
        << ' ' << p.bits << ' ' << (p.is_output ? '1' : '0') << '\n';
    }
  }
  w << "//HIDAP_DIE " << d.die().w << ' ' << d.die().h << "\n\n";
}

void write_cell(BlockWriter& w, const Design& d, CellId cid, std::span<const Conn> conns) {
  const Cell& c = d.cell(cid);
  const Point pos = c.fixed_pos.value_or(Point{0.0, 0.0});
  switch (c.kind) {
    case CellKind::Macro:
      w << "  ";
      w.identifier(d.macro_def_of(cid).name);
      break;
    case CellKind::Flop:
      w << "  HIDAP_DFF #(.AREA(" << c.area << "))";
      break;
    case CellKind::Comb:
      w << "  HIDAP_COMB #(.AREA(" << c.area << "))";
      break;
    case CellKind::PortIn:
      w << "  HIDAP_PIN_IN #(.X(" << pos.x << "), .Y(" << pos.y << "))";
      break;
    case CellKind::PortOut:
      w << "  HIDAP_PIN_OUT #(.X(" << pos.x << "), .Y(" << pos.y << "))";
      break;
  }
  w << ' ';
  w.identifier(d.cell_name(cid));
  w << " (";
  // Non-macro pins are numbered per direction in connection order.
  const char in_prefix = c.kind == CellKind::Flop ? 'D' : 'I';
  const char out_prefix = c.kind == CellKind::Flop ? 'Q' : 'O';
  int ins = 0, outs = 0;
  for (std::size_t i = 0; i < conns.size(); ++i) {
    if (i) w << ", ";
    w << '.';
    if (c.kind == CellKind::Macro) {
      const std::int32_t pin = conns[i].label;
      if (pin < 0) {
        w << "PIN";
      } else {
        w << d.macro_def_of(cid).pins[static_cast<std::size_t>(pin)].name;
      }
    } else if (conns[i].label) {
      w << out_prefix << outs++;
    } else {
      w << in_prefix << ins++;
    }
    w << '(';
    w.net(conns[i].net);
    w << ')';
  }
  w << ");\n";
}

// `module name (ports);`, the port directions and the wires declared here.
void write_module_head(BlockWriter& w, const Design& d, HierId h, const ModulePlan& plan) {
  w << "module ";
  write_module_name(w, d, h);
  w << " (";
  for (std::size_t i = 0; i < plan.ports.size(); ++i) {
    if (i) w << ", ";
    w.net(plan.ports[i].first);
  }
  w << ");\n";
  for (const auto& [net, dir] : plan.ports) {
    w << (dir == PortDir::Out ? "  output " : "  input ");
    w.net(net);
    w << ";\n";
  }
  for (const NetId net : plan.wires) {
    w << "  wire ";
    w.net(net);
    w << ";\n";
  }
}

// The child instances and `endmodule`.
void write_module_tail(BlockWriter& w, const Design& d, HierId h,
                       const std::vector<ModulePlan>& plans) {
  for (const HierId child : d.hier(h).children) {
    const ModulePlan& cplan = plans[static_cast<std::size_t>(child)];
    w << "  ";
    write_module_name(w, d, child);
    w << ' ';
    w.identifier(d.hier(child).name);
    w << " (";
    for (std::size_t i = 0; i < cplan.ports.size(); ++i) {
      if (i) w << ", ";
      w << '.';
      w.net(cplan.ports[i].first);
      w << '(';
      w.net(cplan.ports[i].first);
      w << ')';
    }
    w << ");\n";
  }
  w << "endmodule\n\n";
}

}  // namespace

void write_verilog(const Design& design, std::ostream& out) {
  write_verilog(design, out, ThreadPool::global());
}

void write_verilog(const Design& design, std::ostream& out, ThreadPool& pool) {
  obs::Phase phase("verilog_write", "netlist");
  const std::vector<ModulePlan> plans = plan_modules(design);
  const Csr<Conn> conns = cell_connections(design);

  // Emit child modules before parents (post-order) so the file parses in
  // one pass even though our parser does not require it.
  std::vector<HierId> order;
  std::vector<HierId> stack = {design.root()};
  while (!stack.empty()) {
    const HierId h = stack.back();
    stack.pop_back();
    order.push_back(h);
    for (const HierId c : design.hier(h).children) stack.push_back(c);
  }
  std::reverse(order.begin(), order.end());

  // The file after the header is one sequence of positions: per module,
  // its head, one per cell and its tail. Module m begins at first[m].
  std::vector<std::size_t> first(order.size() + 1, 0);
  for (std::size_t m = 0; m < order.size(); ++m) {
    first[m + 1] = first[m] + design.cells_of(order[m]).size() + 2;
  }
  const auto format = [&](BlockWriter& w, std::size_t begin, std::size_t end) {
    std::size_t m = static_cast<std::size_t>(
        std::upper_bound(first.begin(), first.end(), begin) - first.begin() - 1);
    for (std::size_t p = begin; p < end; ++m) {
      const HierId h = order[m];
      const std::span<const CellId> cells = design.cells_of(h);
      const std::size_t stop = std::min(end, first[m + 1]);
      if (p == first[m]) write_module_head(w, design, h, plans[static_cast<std::size_t>(h)]);
      p = std::max(p, first[m] + 1);
      for (; p < stop && p - first[m] - 1 < cells.size(); ++p) {
        const CellId cid = cells[p - first[m] - 1];
        write_cell(w, design, cid, conns[static_cast<std::size_t>(cid)]);
      }
      if (p < stop) {
        write_module_tail(w, design, h, plans);
        ++p;
      }
    }
  };

  // Tasks of kTaskPositions positions are formatted on the pool a round
  // at a time, each into a buffer of its own, and the calling thread
  // then hands the round's buffers to the stream in file order: memory
  // stays at one round of buffers, whatever the design's size.
  constexpr std::size_t kTaskPositions = 1024;
  const std::size_t positions = first.back();
  const std::size_t tasks = (positions + kTaskPositions - 1) / kTaskPositions;
  const std::size_t per_round = 2 * static_cast<std::size_t>(pool.size());
  std::vector<BlockWriter> buffers(per_round);
  std::size_t written = 0;
  const auto hand_over = [&](const BlockWriter& w) {
    out.write(w.text().data(), static_cast<std::streamsize>(w.text().size()));
    written += w.text().size();
  };
  write_macro_header(buffers.front(), design);
  hand_over(buffers.front());
  for (std::size_t round = 0; round * per_round < tasks; ++round) {
    const std::size_t count = std::min(per_round, tasks - round * per_round);
    pool.parallel_for(count, [&](std::size_t i) {
      const std::size_t task = round * per_round + i;
      buffers[i].clear();
      format(buffers[i], task * kTaskPositions, std::min(positions, (task + 1) * kTaskPositions));
    });
    for (std::size_t i = 0; i < count; ++i) hand_over(buffers[i]);
  }

  static obs::Counter& cells = obs::default_registry().counter("verilog_write.cells");
  static obs::Counter& bytes = obs::default_registry().counter("verilog_write.bytes");
  cells.add(design.cell_count());
  bytes.add(written);
  phase.arg("cells", static_cast<std::int64_t>(design.cell_count()));
  phase.arg("bytes", static_cast<std::int64_t>(written));
}

void write_verilog_file(const Design& design, const std::string& path) {
  HIDAP_FAILPOINT("netlist.verilog_write");
  std::ofstream out(path);
  if (!out) throw HidapError(ErrorCode::IoError, "cannot open for write: " + path);
  write_verilog(design, out);
  if (!out) throw HidapError(ErrorCode::IoError, "cannot write " + path);
  out.close();
  if (!out) throw HidapError(ErrorCode::IoError, "cannot close " + path);
}

}  // namespace hidap
