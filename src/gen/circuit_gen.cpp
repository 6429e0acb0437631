#include "gen/circuit_gen.hpp"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hidap {

namespace {

// Consecutive ids first .. first + count - 1. Every array the builder
// makes creates its cells, and the nets they drive, one after another,
// so a bus is a range and costs no allocation.
struct IdRange {
  std::int32_t first = 0;
  std::int32_t count = 0;
  std::size_t size() const { return static_cast<std::size_t>(count); }
  std::int32_t operator[](std::size_t i) const { return first + static_cast<std::int32_t>(i); }
};

// The first `n` ids of `r`.
IdRange head(IdRange r, std::int32_t n) { return {r.first, std::min(r.count, n)}; }

// A name piece built on the stack.
class Text {
 public:
  Text& operator<<(std::string_view s) {
    assert(size_ + s.size() <= kCapacity);
    size_ += s.copy(buf_ + size_, s.size());
    return *this;
  }
  Text& operator<<(long v) {
    const auto [end, ec] = std::to_chars(buf_ + size_, buf_ + kCapacity, v);
    assert(ec == std::errc());
    size_ = static_cast<std::size_t>(end - buf_);
    return *this;
  }
  operator std::string_view() const { return {buf_, size_}; }

 private:
  static constexpr std::size_t kCapacity = 128;  // names here stay far shorter
  char buf_[kCapacity];
  std::size_t size_ = 0;
};

std::size_t decimal_digits(long v) {
  std::size_t n = 1;
  for (; v >= 10; v /= 10) ++n;
  return n;
}

// A generated name: `prefix`, the decimal `number` when it is not
// negative, then `suffix` ("in_bus[" 3 "]", "dp_c2_" 17). The dry pass
// only needs its size.
struct GenName {
  std::string_view prefix;
  long number = -1;
  std::string_view suffix;

  std::size_t size() const {
    return prefix.size() + (number < 0 ? 0 : decimal_digits(number)) + suffix.size();
  }
  std::string_view format(Text& out) const {
    out << prefix;
    if (number >= 0) out << number;
    return out << suffix;
  }
};

// Where each SRAM pin group sits on one macro def, looked up once.
struct SramPins {
  struct Offset {
    float x = 0.0f, y = 0.0f;
  };
  Offset d[4], q[4], addr;
};

// The dry pass: makes every random draw and counts the cells, nets,
// sinks and name bytes the build will write, without storing any of
// them. Hierarchy ids are numbered as the build numbers them.
class CountPass {
 public:
  explicit CountPass(std::uint64_t seed) : rng_(seed) {}

  Rng& rng() { return rng_; }
  const DesignSize& size() const { return size_; }
  long std_cells() const { return std_cells_; }

  HierId add_hier(HierId, const GenName&) { return next_hier_++; }
  CellId add_cell(HierId, const GenName& name, CellKind kind, double,
                  MacroDefId = kNoMacroDef) {
    size_.cell_name_bytes += name.size();
    std_cells_ += kind == CellKind::Flop || kind == CellKind::Comb;
    return static_cast<CellId>(size_.cells++);
  }
  NetId add_net(std::string_view name) {
    size_.net_name_bytes += name.size();
    return static_cast<NetId>(size_.nets++);
  }
  void set_driver(NetId, CellId, float = 0.0f, float = 0.0f) {}
  void add_sink(NetId, CellId, float = 0.0f, float = 0.0f) { ++size_.pins; }

 private:
  Rng rng_;
  DesignSize size_;
  HierId next_hier_ = 1;  // after the root
  long std_cells_ = 0;
};

// The build: replays the same draws into the design, formatting each
// name on the stack.
class FillPass {
 public:
  FillPass(Design& design, std::uint64_t seed) : design_(design), rng_(seed) {}

  Rng& rng() { return rng_; }
  long std_cells() const { return std_cells_; }

  HierId add_hier(HierId parent, const GenName& name) {
    Text text;
    return design_.add_hier(parent, std::string(name.format(text)));
  }
  CellId add_cell(HierId hier, const GenName& name, CellKind kind, double area,
                  MacroDefId macro_def = kNoMacroDef) {
    Text text;
    std_cells_ += kind == CellKind::Flop || kind == CellKind::Comb;
    return design_.add_cell(hier, name.format(text), kind, area, macro_def);
  }
  NetId add_net(std::string_view name) { return design_.add_net(name); }
  void set_driver(NetId net, CellId cell, float dx = 0.0f, float dy = 0.0f) {
    design_.set_driver(net, cell, dx, dy);
  }
  void add_sink(NetId net, CellId cell, float dx = 0.0f, float dy = 0.0f) {
    design_.add_sink(net, cell, dx, dy);
  }

 private:
  Design& design_;
  Rng rng_;
  long std_cells_ = 0;
};

// The top-level ports: input pads and the nets they drive, output pads,
// config pads and their nets.
struct Ports {
  IdRange in_pads, in_nets, out_pads, cfg_pads, cfg_nets;
};

// Bit b of a subsystem's output stage input: read bus b % R, or the
// stage itself when the subsystem has no banks.
struct MergedBus {
  std::span<const IdRange> reads;
  IdRange stage;
  std::size_t size() const { return stage.size(); }
  NetId operator[](std::size_t b) const {
    if (reads.empty()) return stage[b];
    const IdRange& src = reads[b % reads.size()];
    return src[b % src.size()];
  }
};

// Counts the design, reserves every store once, then builds it.
class CircuitBuilder {
 public:
  CircuitBuilder(const CircuitSpec& spec) : spec_(spec), design_(spec.name) {}

  Design build() {
    make_macro_defs();
    {
      obs::Span span("generate_count", "gen");
      CountPass count(spec_.seed);
      make_design(count);
      design_.reserve(count.size());
    }
    obs::Span span("generate_fill", "gen");
    FillPass fill(design_, spec_.seed);
    const Ports ports = make_design(fill);
    finalize_die_and_ports(ports, fill.std_cells());
    return std::move(design_);
  }

 private:
  /// The whole design in build order; both passes run it.
  template <typename Pass>
  Ports make_design(Pass& p) const {
    const Ports ports = make_ports(p);

    // Distribute macros over subsystems (remainder spread from ss0).
    const int s = spec_.subsystems;
    std::vector<HierId> ss_hiers;
    IdRange bus = ports.in_nets;
    for (int i = 0; i < s; ++i) {
      ss_hiers.push_back(p.add_hier(design_.root(), {"ss", i, ""}));
      bus = make_subsystem(p, ss_hiers.back(),
                           spec_.macro_count / s + (i < spec_.macro_count % s), bus);
    }
    // Close the pipeline at the output pads.
    for (std::size_t i = 0; i < ports.out_pads.size() && i < bus.size(); ++i) {
      p.add_sink(bus[i], ports.out_pads[i]);
    }
    const HierId ctrl = make_control(p, ports.cfg_nets, ss_hiers);

    // 40% of the filler goes under ctrl, the rest is spread over the
    // subsystems, each in a handful of glue modules so declustering sees
    // realistic small HCG nodes.
    const long deficit = static_cast<long>(spec_.target_cells) - p.std_cells();
    if (deficit > 0) {
      const auto fill_under = [&](HierId hier, double share) {
        long budget = static_cast<long>(deficit * share);
        for (long module = 0; budget > 0; ++module) {
          const long cells = std::min<long>(
              budget, 500 + static_cast<long>(p.rng().next_below(4000)));
          make_filler_module(p, p.add_hier(hier, {"glue", module, ""}), cells);
          budget -= cells;
        }
      };
      fill_under(ctrl, 0.4);
      for (const HierId ss : ss_hiers) {
        fill_under(ss, 0.6 / static_cast<double>(ss_hiers.size()));
      }
    }
    return ports;
  }

  // ------------------------------------------------------------ primitives

  /// Creates `width` flops named base[i] under `hier`; bit i sinks
  /// inputs[i] when there is one. Returns the nets driven by the flops.
  template <typename Pass>
  IdRange reg_array(Pass& p, HierId hier, std::string_view base, int width,
                    IdRange inputs) const {
    Text cell_prefix, net_name;
    cell_prefix << base << "[";
    net_name << base << "_q";
    IdRange out{0, width};
    for (int i = 0; i < width; ++i) {
      const CellId flop =
          p.add_cell(hier, {cell_prefix, i, "]"}, CellKind::Flop, spec_.avg_cell_area);
      if (i < inputs.count) p.add_sink(inputs[static_cast<std::size_t>(i)], flop);
      const NetId q = p.add_net(net_name);
      p.set_driver(q, flop);
      if (i == 0) out.first = q;
    }
    return out;
  }

  /// One layer of comb cells, one per bit of `in`, with light cross-bit
  /// mixing; `layer` numbers the cells' names.
  template <typename Pass, typename Bus>
  IdRange comb_layer(Pass& p, HierId hier, std::string_view base, std::string_view net_name,
                     int layer, const Bus& in) const {
    Text cell_prefix;
    cell_prefix << base << "_c" << layer << "_";
    IdRange out{0, static_cast<std::int32_t>(in.size())};
    for (std::size_t b = 0; b < in.size(); ++b) {
      const CellId cell = p.add_cell(hier, {cell_prefix, static_cast<long>(b), ""}, CellKind::Comb,
                                     spec_.avg_cell_area);
      p.add_sink(in[b], cell);
      if (b % 8 == 3 && b + 1 < in.size()) p.add_sink(in[b + 1], cell);  // cross-bit mixing
      const NetId y = p.add_net(net_name);
      p.set_driver(y, cell);
      if (b == 0) out.first = y;
    }
    return out;
  }

  /// Chain of `depth` comb cells per bit.
  template <typename Pass>
  IdRange comb_cloud(Pass& p, HierId hier, std::string_view base, IdRange in, int depth) const {
    Text net_name;
    net_name << base << "_y";
    for (int d = 0; d < depth; ++d) in = comb_layer(p, hier, base, net_name, d, in);
    return in;
  }

  // ------------------------------------------------------------ macro defs

  void make_macro_defs() {
    // A few size classes so banks are not uniform.
    const int classes = 3;
    for (int c = 0; c < classes; ++c) {
      const double scale = 0.8 + 0.25 * c;
      MacroDef def = MacroLibrary::make_sram(
          "SRAM_" + std::to_string(c), spec_.macro_w * scale,
          spec_.macro_h * (1.3 - 0.18 * c), spec_.bus_width);
      const auto offset = [&def](std::string_view pin) {
        const Point& at = def.pins[static_cast<std::size_t>(def.pin_index(pin))].offset;
        return SramPins::Offset{static_cast<float>(at.x), static_cast<float>(at.y)};
      };
      SramPins pins;
      for (int g = 0; g < 4; ++g) {
        pins.d[g] = offset("D" + std::to_string(g));
        pins.q[g] = offset("Q" + std::to_string(g));
      }
      pins.addr = offset("ADDR");
      sram_pins_.push_back(pins);
      macro_defs_.push_back(design_.library().add(std::move(def)));
    }
  }

  // ------------------------------------------------------------ ports

  template <typename Pass>
  Ports make_ports(Pass& p) const {
    const int w = spec_.bus_width;
    Ports out;
    for (int i = 0; i < w; ++i) {
      const CellId pad = p.add_cell(design_.root(), {"in_bus[", i, "]"}, CellKind::PortIn, 0.0);
      const NetId net = p.add_net("in_bus_n");
      p.set_driver(net, pad);
      if (i == 0) out.in_pads.first = pad, out.in_nets.first = net;
    }
    out.in_pads.count = out.in_nets.count = w;
    for (int i = 0; i < w; ++i) {
      const CellId pad = p.add_cell(design_.root(), {"out_bus[", i, "]"}, CellKind::PortOut, 0.0);
      if (i == 0) out.out_pads.first = pad;
    }
    out.out_pads.count = w;
    for (int i = 0; i < 8; ++i) {
      const CellId pad = p.add_cell(design_.root(), {"cfg_in[", i, "]"}, CellKind::PortIn, 0.0);
      const NetId net = p.add_net("cfg_in_n");
      p.set_driver(net, pad);
      if (i == 0) out.cfg_pads.first = pad, out.cfg_nets.first = net;
    }
    out.cfg_pads.count = out.cfg_nets.count = 8;
    return out;
  }

  // ------------------------------------------------------------ subsystems

  template <typename Pass>
  IdRange make_subsystem(Pass& p, HierId ss, int macro_budget, IdRange input_bus) const {
    const int w = spec_.bus_width;

    // Input stage.
    IdRange stage = comb_cloud(p, ss, "inmux", input_bus, 1);
    stage = reg_array(p, ss, "inbuf_q", w, stage);

    // Pipeline stages in their own child modules.
    const int depth = std::max(1, spec_.pipeline_depth + p.rng().next_int(-1, 1));
    for (int d = 0; d < depth; ++d) {
      const HierId ps = p.add_hier(ss, {"pipe", d, ""});
      const IdRange cloud = comb_cloud(p, ps, "dp", stage, spec_.comb_depth);
      Text base;
      base << "st" << d << "_q";
      stage = reg_array(p, ps, base, w, cloud);
    }

    // Memory banks: up to 8 macros each.
    std::vector<IdRange> read_buses;
    int remaining = macro_budget;
    for (int bank = 0; remaining > 0; ++bank) {
      const int in_bank = std::min(remaining, 4 + p.rng().next_int(0, 4));
      read_buses.push_back(make_bank(p, ss, bank, in_bank, stage));
      remaining -= in_bank;
    }

    // Merge the read buses into the output stage (bit-interleaved).
    const IdRange out_cloud =
        comb_layer(p, ss, "outmux", "outmux_y", 0, MergedBus{read_buses, stage});
    return reg_array(p, ss, "outbuf_q", w, out_cloud);
  }

  /// A bank: several macros fed from `stage`, each with write logic, an
  /// address register and a read register array. Returns the bank's read
  /// bus (one macro's read registers, representative).
  template <typename Pass>
  IdRange make_bank(Pass& p, HierId ss, int bank_index, int macro_count, IdRange stage) const {
    const HierId bank = p.add_hier(ss, {"bank", bank_index, ""});
    IdRange read_bus;
    for (int m = 0; m < macro_count; ++m) {
      const std::size_t def_index = p.rng().next_below(macro_defs_.size());
      const SramPins& pins = sram_pins_[def_index];
      const CellId macro =
          p.add_cell(bank, {"mem", m, ""}, CellKind::Macro, 0.0, macro_defs_[def_index]);

      // Write path: stage -> comb -> D pins (4 pin groups along the left edge).
      Text wr_base, addr_base, rd_base;
      wr_base << "wr" << m;
      const IdRange wr = comb_cloud(p, bank, wr_base, stage, 1);
      const std::size_t wr_bits = wr.size();
      for (std::size_t b = 0; b < wr_bits; ++b) {
        const SramPins::Offset& at = pins.d[b * 4 / wr_bits];
        p.add_sink(wr[b], macro, at.x, at.y);
      }
      // Address registers (16 bit) from the stage's low bits.
      addr_base << "addr" << m << "_q";
      const IdRange addr = reg_array(p, bank, addr_base, 16, head(stage, 16));
      for (std::size_t a = 0; a < 16; ++a) p.add_sink(addr[a], macro, pins.addr.x, pins.addr.y);
      // Read path: Q pins -> read registers.
      const auto q_bits = static_cast<std::size_t>(spec_.bus_width);
      IdRange q_nets{0, spec_.bus_width};
      for (std::size_t b = 0; b < q_bits; ++b) {
        const SramPins::Offset& at = pins.q[b * 4 / q_bits];
        const NetId q = p.add_net("mem_q");
        p.set_driver(q, macro, at.x, at.y);
        if (b == 0) q_nets.first = q;
      }
      rd_base << "rd" << m << "_q";
      const IdRange rd = reg_array(p, bank, rd_base, spec_.bus_width, q_nets);
      if (m == 0) read_bus = rd;
    }
    return read_bus;
  }

  // ------------------------------------------------------------ control

  /// The control unit; returns its hierarchy node.
  template <typename Pass>
  HierId make_control(Pass& p, IdRange cfg_nets, const std::vector<HierId>& ss_hiers) const {
    const HierId ctrl = p.add_hier(design_.root(), {"ctrl", -1, ""});
    const IdRange cfg = reg_array(p, ctrl, "cfg_q", 8, cfg_nets);
    // Narrow command links to every subsystem: ctrl cmd regs -> comb ->
    // subsystem control regs. This is the low-bandwidth flow the affinity
    // metric must rank below the wide datapath.
    for (std::size_t i = 0; i < ss_hiers.size(); ++i) {
      Text cmd_base, link_base;
      cmd_base << "ss" << static_cast<long>(i) << "_cmd_q";
      link_base << "ss" << static_cast<long>(i) << "_lnk";
      const IdRange cmd = reg_array(p, ctrl, cmd_base, 8, cfg);
      const IdRange link = comb_cloud(p, ctrl, link_base, cmd, 2);
      reg_array(p, ss_hiers[i], "ctl_q", 8, link);
    }
    return ctrl;
  }

  // ------------------------------------------------------------ filler

  /// A filler module: an 8-bit driver register array plus dangling comb
  /// chains hanging off it (kept narrow so it reads as glue, not datapath).
  template <typename Pass>
  void make_filler_module(Pass& p, HierId glue, long cells) const {
    const IdRange drv = reg_array(p, glue, "lcl_q", 8, IdRange{});
    cells -= 8;
    const int chain_len = 12;
    for (long chain = 0; cells > 0; ++chain) {
      NetId cur = drv[p.rng().next_below(drv.size())];
      Text cell_prefix;
      cell_prefix << "f" << chain << "_";
      const int len = static_cast<int>(std::min<long>(chain_len, cells));
      for (int i = 0; i < len; ++i) {
        const CellId cell =
            p.add_cell(glue, {cell_prefix, i, ""}, CellKind::Comb, spec_.avg_cell_area);
        p.add_sink(cur, cell);
        const NetId y = p.add_net("f_y");
        p.set_driver(y, cell);
        cur = y;
      }
      cells -= len;
    }
  }

  // ------------------------------------------------------------ finishing

  void finalize_die_and_ports(const Ports& ports, long std_cells) {
    const double total = design_.total_cell_area();
    const double die_area = total / spec_.utilization;
    const double side = std::sqrt(die_area);
    design_.set_die(Die{side, side});

    const auto spread = [&](IdRange pads, double x, bool vertical) {
      for (std::size_t i = 0; i < pads.size(); ++i) {
        const double t = (static_cast<double>(i) + 1.0) / (pads.size() + 1.0);
        const Point pos = vertical ? Point{x, side * (0.1 + 0.8 * t)}
                                   : Point{side * (0.1 + 0.8 * t), x};
        design_.set_fixed_pos(pads[i], pos);
      }
    };
    spread(ports.in_pads, 0.0, /*vertical=*/true);          // west edge
    spread(ports.out_pads, side, /*vertical=*/true);        // east edge
    spread(ports.cfg_pads, side, /*vertical=*/false);       // north edge
    design_.freeze();

    HIDAP_LOG_DEBUG("gen %s: %zu cells (%ld std), %zu macros, die %.0fx%.0f",
                    spec_.name.c_str(), design_.cell_count(), std_cells,
                    design_.macro_count(), side, side);
  }

  CircuitSpec spec_;
  Design design_;
  std::vector<MacroDefId> macro_defs_;
  std::vector<SramPins> sram_pins_;  ///< per macro_defs_ entry
};

}  // namespace

Design generate_circuit(const CircuitSpec& spec) {
  static obs::Counter& cells = obs::default_registry().counter("generate.cells");
  static obs::Counter& nets = obs::default_registry().counter("generate.nets");
  static obs::Counter& pins = obs::default_registry().counter("generate.pins");
  const obs::Phase phase("generate", "gen");
  Design design = CircuitBuilder(spec).build();
  cells.add(design.cell_count());
  nets.add(design.net_count());
  pins.add(design.pin_count());
  return design;
}

}  // namespace hidap
