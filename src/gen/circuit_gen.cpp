#include "gen/circuit_gen.hpp"

#include <algorithm>
#include <cmath>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/log.hpp"
#include "util/rng.hpp"

namespace hidap {

namespace {

// Builder helpers carrying the design under construction.
class CircuitBuilder {
 public:
  CircuitBuilder(const CircuitSpec& spec)
      : spec_(spec), design_(spec.name), rng_(spec.seed) {}

  Design build() {
    make_macro_defs();
    make_ports();
    make_subsystems();
    make_control();
    add_filler();
    finalize_die_and_ports();
    return std::move(design_);
  }

 private:
  // ------------------------------------------------------------ primitives

  /// Creates `width` flops named base[i] under `hier`; bit i sinks
  /// inputs[i] when provided. Returns the nets driven by the flops.
  std::vector<NetId> reg_array(HierId hier, const std::string& base, int width,
                               const std::vector<NetId>* inputs) {
    std::vector<NetId> out(static_cast<std::size_t>(width));
    for (int i = 0; i < width; ++i) {
      const CellId flop = design_.add_cell(
          hier, base + "[" + std::to_string(i) + "]", CellKind::Flop, spec_.avg_cell_area);
      if (inputs && i < static_cast<int>(inputs->size())) {
        design_.add_sink((*inputs)[static_cast<std::size_t>(i)], flop);
      }
      const NetId q = design_.add_net(base + "_q");
      design_.set_driver(q, flop);
      out[static_cast<std::size_t>(i)] = q;
      ++std_cells_;
    }
    return out;
  }

  /// Chain of `depth` comb cells per bit, with light cross-bit mixing.
  std::vector<NetId> comb_cloud(HierId hier, const std::string& base,
                                const std::vector<NetId>& in, int depth) {
    std::vector<NetId> cur = in;
    for (int d = 0; d < depth; ++d) {
      std::vector<NetId> next(cur.size());
      for (std::size_t b = 0; b < cur.size(); ++b) {
        const CellId cell = design_.add_cell(
            hier, base + "_c" + std::to_string(d) + "_" + std::to_string(b),
            CellKind::Comb, spec_.avg_cell_area);
        design_.add_sink(cur[b], cell);
        if (b % 8 == 3 && b + 1 < cur.size()) {
          design_.add_sink(cur[b + 1], cell);  // cross-bit mixing
        }
        const NetId y = design_.add_net(base + "_y");
        design_.set_driver(y, cell);
        next[b] = y;
        ++std_cells_;
      }
      cur = std::move(next);
    }
    return cur;
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
      macro_defs_.push_back(design_.library().add(std::move(def)));
    }
  }

  // ------------------------------------------------------------ ports

  void make_ports() {
    const int w = spec_.bus_width;
    in_nets_.resize(static_cast<std::size_t>(w));
    for (int i = 0; i < w; ++i) {
      const CellId pad = design_.add_cell(
          design_.root(), "in_bus[" + std::to_string(i) + "]", CellKind::PortIn, 0.0);
      const NetId net = design_.add_net("in_bus_n");
      design_.set_driver(net, pad);
      in_nets_[static_cast<std::size_t>(i)] = net;
      in_pads_.push_back(pad);
    }
    for (int i = 0; i < w; ++i) {
      out_pads_.push_back(design_.add_cell(
          design_.root(), "out_bus[" + std::to_string(i) + "]", CellKind::PortOut, 0.0));
    }
    for (int i = 0; i < 8; ++i) {
      const CellId pad = design_.add_cell(
          design_.root(), "cfg_in[" + std::to_string(i) + "]", CellKind::PortIn, 0.0);
      const NetId net = design_.add_net("cfg_in_n");
      design_.set_driver(net, pad);
      cfg_nets_.push_back(net);
      cfg_pads_.push_back(pad);
    }
  }

  // ------------------------------------------------------------ subsystems

  void make_subsystems() {
    // Distribute macros over subsystems (remainder spread from ss0).
    const int s = spec_.subsystems;
    std::vector<int> macros_per_ss(static_cast<std::size_t>(s), spec_.macro_count / s);
    for (int i = 0; i < spec_.macro_count % s; ++i) ++macros_per_ss[static_cast<std::size_t>(i)];

    std::vector<NetId> bus = in_nets_;
    for (int i = 0; i < s; ++i) {
      bus = make_subsystem(i, macros_per_ss[static_cast<std::size_t>(i)], bus);
    }
    // Close the pipeline at the output pads.
    for (std::size_t i = 0; i < out_pads_.size() && i < bus.size(); ++i) {
      design_.add_sink(bus[i], out_pads_[i]);
    }
  }

  std::vector<NetId> make_subsystem(int index, int macro_budget,
                                    const std::vector<NetId>& input_bus) {
    const HierId ss = design_.add_hier(design_.root(), "ss" + std::to_string(index));
    ss_hiers_.push_back(ss);
    const int w = spec_.bus_width;

    // Input stage.
    std::vector<NetId> stage = comb_cloud(ss, "inmux", input_bus, 1);
    stage = reg_array(ss, "inbuf_q", w, &stage);

    // Pipeline stages in their own child modules.
    const int depth = std::max(1, spec_.pipeline_depth + rng_.next_int(-1, 1));
    for (int d = 0; d < depth; ++d) {
      const HierId ps = design_.add_hier(ss, "pipe" + std::to_string(d));
      std::vector<NetId> cloud = comb_cloud(ps, "dp", stage, spec_.comb_depth);
      stage = reg_array(ps, "st" + std::to_string(d) + "_q", w, &cloud);
    }

    // Memory banks: up to 8 macros each.
    std::vector<std::vector<NetId>> read_buses;
    int remaining = macro_budget;
    int bank_idx = 0;
    while (remaining > 0) {
      const int in_bank = std::min(remaining, 4 + rng_.next_int(0, 4));
      read_buses.push_back(make_bank(ss, bank_idx++, in_bank, stage));
      remaining -= in_bank;
    }

    // Merge the read buses into the output stage (bit-interleaved).
    std::vector<NetId> merged(static_cast<std::size_t>(w));
    if (read_buses.empty()) {
      merged = stage;
    } else {
      for (int b = 0; b < w; ++b) {
        const auto& src = read_buses[static_cast<std::size_t>(b) % read_buses.size()];
        merged[static_cast<std::size_t>(b)] = src[static_cast<std::size_t>(b) % src.size()];
      }
    }
    std::vector<NetId> out_cloud = comb_cloud(ss, "outmux", merged, 1);
    return reg_array(ss, "outbuf_q", w, &out_cloud);
  }

  /// A bank: several macros fed from `stage`, each with write logic, an
  /// address register and a read register array. Returns the bank's read
  /// bus (one macro's read registers, representative).
  std::vector<NetId> make_bank(HierId ss, int bank_index, int macro_count,
                               const std::vector<NetId>& stage) {
    const HierId bank = design_.add_hier(ss, "bank" + std::to_string(bank_index));
    std::vector<NetId> read_bus;
    for (int m = 0; m < macro_count; ++m) {
      const MacroDefId def_id =
          macro_defs_[rng_.next_below(macro_defs_.size())];
      const MacroDef& def = design_.library().def(def_id);
      const CellId macro = design_.add_cell(bank, "mem" + std::to_string(m),
                                            CellKind::Macro, 0.0, def_id);

      // Write path: stage -> comb -> D pins (4 pin groups along the left edge).
      std::vector<NetId> wr =
          comb_cloud(bank, "wr" + std::to_string(m), stage, 1);
      for (std::size_t b = 0; b < wr.size(); ++b) {
        const int group = static_cast<int>(b * 4 / wr.size());
        const int pin = def.pin_index("D" + std::to_string(group));
        const MacroPin& mp = def.pins[static_cast<std::size_t>(pin)];
        design_.add_sink(wr[b], macro, static_cast<float>(mp.offset.x),
                         static_cast<float>(mp.offset.y));
      }
      // Address registers (16 bit) from the stage's low bits.
      std::vector<NetId> addr_in(stage.begin(),
                                 stage.begin() + std::min<std::size_t>(16, stage.size()));
      std::vector<NetId> addr =
          reg_array(bank, "addr" + std::to_string(m) + "_q", 16, &addr_in);
      {
        const int pin = def.pin_index("ADDR");
        const MacroPin& mp = def.pins[static_cast<std::size_t>(pin)];
        for (const NetId a : addr) {
          design_.add_sink(a, macro, static_cast<float>(mp.offset.x),
                           static_cast<float>(mp.offset.y));
        }
      }
      // Read path: Q pins -> read registers.
      std::vector<NetId> q_nets(static_cast<std::size_t>(spec_.bus_width));
      for (std::size_t b = 0; b < q_nets.size(); ++b) {
        const int group = static_cast<int>(b * 4 / q_nets.size());
        const int pin = def.pin_index("Q" + std::to_string(group));
        const MacroPin& mp = def.pins[static_cast<std::size_t>(pin)];
        const NetId q = design_.add_net("mem_q");
        design_.set_driver(q, macro, static_cast<float>(mp.offset.x),
                           static_cast<float>(mp.offset.y));
        q_nets[b] = q;
      }
      std::vector<NetId> rd =
          reg_array(bank, "rd" + std::to_string(m) + "_q", spec_.bus_width, &q_nets);
      if (read_bus.empty()) read_bus = rd;
    }
    return read_bus;
  }

  // ------------------------------------------------------------ control

  void make_control() {
    ctrl_hier_ = design_.add_hier(design_.root(), "ctrl");
    std::vector<NetId> cfg = reg_array(ctrl_hier_, "cfg_q", 8, &cfg_nets_);
    // Narrow command links to every subsystem: ctrl cmd regs -> comb ->
    // subsystem control regs. This is the low-bandwidth flow the affinity
    // metric must rank below the wide datapath.
    for (std::size_t i = 0; i < ss_hiers_.size(); ++i) {
      const std::string tag = "ss" + std::to_string(i);
      std::vector<NetId> cmd =
          reg_array(ctrl_hier_, tag + "_cmd_q", 8, &cfg);
      std::vector<NetId> link = comb_cloud(ctrl_hier_, tag + "_lnk", cmd, 2);
      reg_array(ss_hiers_[i], "ctl_q", 8, &link);
    }
  }

  // ------------------------------------------------------------ filler

  void add_filler() {
    const long target = spec_.target_cells;
    long deficit = target - std_cells_;
    if (deficit <= 0) return;
    // 40% of the filler goes under ctrl, the rest is spread over the
    // subsystems, each in a handful of glue modules so declustering sees
    // realistic small HCG nodes.
    struct Zone {
      HierId hier;
      double share;
    };
    std::vector<Zone> zones;
    zones.push_back({ctrl_hier_, 0.4});
    for (const HierId ss : ss_hiers_) {
      zones.push_back({ss, 0.6 / static_cast<double>(ss_hiers_.size())});
    }
    for (const Zone& zone : zones) {
      long budget = static_cast<long>(deficit * zone.share);
      int module_idx = 0;
      while (budget > 0) {
        const long module_cells = std::min<long>(
            budget, 500 + static_cast<long>(rng_.next_below(4000)));
        const HierId glue = design_.add_hier(
            zone.hier, "glue" + std::to_string(module_idx++));
        make_filler_module(glue, module_cells);
        budget -= module_cells;
      }
    }
  }

  /// A filler module: an 8-bit driver register array plus dangling comb
  /// chains hanging off it (kept narrow so it reads as glue, not datapath).
  void make_filler_module(HierId glue, long cells) {
    std::vector<NetId> drv = reg_array(glue, "lcl_q", 8, nullptr);
    cells -= 8;
    const int chain_len = 12;
    int chain_idx = 0;
    while (cells > 0) {
      NetId cur = drv[rng_.next_below(drv.size())];
      const int len = static_cast<int>(std::min<long>(chain_len, cells));
      for (int i = 0; i < len; ++i) {
        const CellId cell = design_.add_cell(
            glue, "f" + std::to_string(chain_idx) + "_" + std::to_string(i),
            CellKind::Comb, spec_.avg_cell_area);
        design_.add_sink(cur, cell);
        const NetId y = design_.add_net("f_y");
        design_.set_driver(y, cell);
        cur = y;
        ++std_cells_;
      }
      cells -= len;
      ++chain_idx;
    }
  }

  // ------------------------------------------------------------ finishing

  void finalize_die_and_ports() {
    const double total = design_.total_cell_area();
    const double die_area = total / spec_.utilization;
    const double side = std::sqrt(die_area);
    design_.set_die(Die{side, side});

    const auto spread = [&](const std::vector<CellId>& pads, double x, bool vertical) {
      for (std::size_t i = 0; i < pads.size(); ++i) {
        const double t = (static_cast<double>(i) + 1.0) / (pads.size() + 1.0);
        const Point pos = vertical ? Point{x, side * (0.1 + 0.8 * t)}
                                   : Point{side * (0.1 + 0.8 * t), x};
        design_.set_fixed_pos(pads[i], pos);
      }
    };
    spread(in_pads_, 0.0, /*vertical=*/true);          // west edge
    spread(out_pads_, side, /*vertical=*/true);        // east edge
    spread(cfg_pads_, side, /*vertical=*/false);       // north edge
    design_.freeze();

    HIDAP_LOG_DEBUG("gen %s: %zu cells (%ld std), %zu macros, die %.0fx%.0f",
                    spec_.name.c_str(), design_.cell_count(), std_cells_,
                    design_.macro_count(), side, side);
  }

  CircuitSpec spec_;
  Design design_;
  Rng rng_;
  std::vector<MacroDefId> macro_defs_;
  std::vector<NetId> in_nets_, cfg_nets_;
  std::vector<CellId> in_pads_, out_pads_, cfg_pads_;
  std::vector<HierId> ss_hiers_;
  HierId ctrl_hier_ = kInvalidId;
  long std_cells_ = 0;
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
