#include "place/quadratic_placer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/hash.hpp"

namespace hidap {

CellPlacementModel::CellPlacementModel(const Design& design, const HierTree& ht,
                                       const PlaceOptions& options)
    : design_(&design),
      ht_(&ht),
      options_(options),
      die_{0, 0, design.die().w, design.die().h} {
  static obs::Counter& clusters = obs::default_registry().counter("eval_model.clusters");
  static obs::Counter& links = obs::default_registry().counter("eval_model.links");
  static obs::Counter& sources = obs::default_registry().counter("eval_model.sources");
  static obs::Counter& fixed = obs::default_registry().counter("eval_model.fixed_sources");
  const obs::Phase phase("eval_model");
  clustering_ = cluster_cells(design, ht,
                              options.target_clusters > 0 ? options.target_clusters
                                                          : 3 * options.grid * options.grid);
  build_templates();
  clusters.add(clustering_.clusters.size());
  links.add(link_count());
  sources.add(template_sources());
  fixed.add(fixed_sources_.size());
}

namespace {

// Fixed sources are keyed by their bytes: a cell and its offset bits.
static_assert(sizeof(NetPin) == sizeof(CellId) + 2 * sizeof(float), "NetPin has padding");
struct SourceHash {
  std::size_t operator()(const NetPin& p) const { return hash_bytes(&p, sizeof p); }
};
struct SameSource {
  bool operator()(const NetPin& a, const NetPin& b) const {
    return std::memcmp(&a, &b, sizeof a) == 0;
  }
};

}  // namespace

// One pass over the nets builds both templates; each net's pins are read
// once, while they are in cache.
void CellPlacementModel::build_templates() {
  const Design& design = *design_;
  const std::size_t clusters = clustering_.clusters.size();

  // Fixed columns follow the clusters, one per distinct fixed source in
  // first-appearance order: a macro pin keyed by its macro and offsets,
  // any other cell by the cell alone (pin_position ignores a non-macro
  // cell's offsets). Every reference to a source reads one column, whose
  // value is the pin_position each reference would resolve.
  std::vector<std::size_t> listed_by(clusters, SIZE_MAX);  // per column: last net that listed it
  std::unordered_map<NetPin, std::uint32_t, SourceHash, SameSource> fixed_column;
  const auto fixed_column_of = [&](const NetPin& p) {
    const NetPin source =
        ht_->macro_ordinal(p.cell) != HierTree::kNoMacroOrdinal ? p : NetPin{p.cell};
    const auto [it, added] =
        fixed_column.try_emplace(source, static_cast<std::uint32_t>(listed_by.size()));
    if (added) {
      fixed_sources_.push_back(source);
      listed_by.push_back(SIZE_MAX);
    }
    return it->second;
  };

  // Links: the clique model with 1/(p-1) weighting over each net's
  // distinct clusters and every fixed end (macro pins, ports, unclustered
  // cells; a repeated fixed end still counts, its links reading one
  // column). Net template: a net's sources are the distinct columns its
  // pins resolve to -- a pinned cell is its own fixed source, not its
  // cluster. Bounding boxes only take min and max, so a repeated source
  // changes no bit; a net with one source has box half-perimeter
  // x - x + y - y = +0.0 and a one-bin box, so leaving it out changes no
  // sum. The kept nets stay in net order, so every sum adds in the order
  // of the per-net walk.
  struct Emitted {
    std::uint32_t owner;
    std::uint32_t other;
    double weight;
  };
  std::vector<Emitted> emitted;
  std::vector<std::uint32_t> ends;  // link ends as columns
  net_begin_.assign(1, 0);
  for (std::size_t n = 0; n < design.net_count(); ++n) {
    const std::span<const NetPin> pins = design.pins(static_cast<NetId>(n));
    if (pins.size() < 2) continue;
    ++multi_pin_nets_;
    ends.clear();
    bool clustered = false;
    const std::size_t first = net_source_.size();
    for (const NetPin& p : pins) {
      const int cl = clustering_.cluster_of[static_cast<std::size_t>(p.cell)];
      const auto c = static_cast<std::uint32_t>(cl);
      const bool at_cluster = cl >= 0 && !design.cell(p.cell).fixed_pos;
      const std::uint32_t column = at_cluster ? c : fixed_column_of(p);
      if (listed_by[column] != n) {
        listed_by[column] = n;
        net_source_.push_back(column);
      }
      // Small nets dominate; a flat scan is fine.
      if (cl < 0) {
        ends.push_back(column);
      } else if (std::find(ends.begin(), ends.end(), c) == ends.end()) {
        ends.push_back(c);
        clustered = true;
      }
    }
    if (net_source_.size() - first < 2) {
      net_source_.resize(first);
    } else {
      net_begin_.push_back(net_source_.size());
    }
    if (ends.size() < 2 || !clustered) continue;
    const double w = 1.0 / static_cast<double>(ends.size() - 1);
    for (std::size_t i = 0; i < ends.size(); ++i) {
      for (std::size_t j = i + 1; j < ends.size(); ++j) {
        if (ends[i] < clusters) emitted.push_back({ends[i], ends[j], w});
        if (ends[j] < clusters) emitted.push_back({ends[j], ends[i], w});
      }
    }
  }

  // Stable bucket by owner: each cluster's links keep emission order.
  begin_.assign(clusters + 1, 0);
  for (const Emitted& e : emitted) ++begin_[e.owner + 1];
  for (std::size_t i = 0; i < clusters; ++i) begin_[i + 1] += begin_[i];
  column_.resize(emitted.size());
  weight_.resize(emitted.size());
  std::vector<std::size_t> cursor(begin_.begin(), begin_.end() - 1);
  for (const Emitted& e : emitted) {
    const std::size_t slot = cursor[e.owner]++;
    column_[slot] = e.other;
    weight_[slot] = e.weight;
  }
  wsum_.assign(clusters, 0.0);
  for (std::size_t i = 0; i < clusters; ++i) {
    for (std::size_t l = begin_[i]; l < begin_[i + 1]; ++l) wsum_[i] += weight_[l];
  }
}

void CellPlacementModel::load_rows(std::span<const PlacedDesign> batch,
                                   std::vector<double>& pos) const {
  const std::size_t n = clustering_.clusters.size();
  const std::size_t stride = 2 * batch.size();
  pos.resize((n + fixed_sources_.size()) * stride);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const std::vector<Point>& clustered = batch[k].cluster_positions();
    for (std::size_t i = 0; i < n; ++i) {
      pos[i * stride + 2 * k] = clustered[i].x;
      pos[i * stride + 2 * k + 1] = clustered[i].y;
    }
    const std::vector<Point>& fixed = batch[k].fixed_positions();
    for (std::size_t f = 0; f < fixed.size(); ++f) {
      pos[(n + f) * stride + 2 * k] = fixed[f].x;
      pos[(n + f) * stride + 2 * k + 1] = fixed[f].y;
    }
  }
}

PlacedDesign::PlacedDesign(std::shared_ptr<const CellPlacementModel> model,
                           const PlacementResult& macros)
    : model_(std::move(model)) {
  const HierTree& ht = model_->ht();
  macros_.resize(ht.total_macros());
  for (const MacroPlacement& m : macros.macros) {
    const std::uint32_t k = ht.macro_ordinal(m.cell);
    if (k != HierTree::kNoMacroOrdinal) macros_[k] = m;
  }
  // Ordinal order is CellId order: the blockage list visits macro cells
  // in that order, each with its last placement entry -- the order every
  // grid map sums in.
  for (const MacroPlacement& m : macros_) {
    if (m.cell != kInvalidId) blockages_.push_back(m.rect);
  }
  cluster_pos_.assign(clustering().clusters.size(), die().center());
  // No fixed source is a cluster's cell, so none reads cluster_pos_.
  fixed_pos_.reserve(model_->fixed_sources().size());
  for (const NetPin& source : model_->fixed_sources()) fixed_pos_.push_back(pin_position(source));
}

const MacroPlacement* PlacedDesign::macro_of(CellId cell) const {
  const std::uint32_t k = model_->ht().macro_ordinal(cell);
  if (k == HierTree::kNoMacroOrdinal || macros_[k].cell == kInvalidId) return nullptr;
  return &macros_[k];
}

Point PlacedDesign::cell_position(CellId cell) const {
  const Cell& c = design().cell(cell);
  if (const MacroPlacement* m = macro_of(cell)) return m->rect.center();
  if (c.fixed_pos) return *c.fixed_pos;
  const int cl = clustering().cluster_of[static_cast<std::size_t>(cell)];
  if (cl >= 0) return cluster_pos_[static_cast<std::size_t>(cl)];
  return die().center();
}

Point PlacedDesign::pin_position(const NetPin& pin) const {
  if (const MacroPlacement* m = macro_of(pin.cell)) {
    const bool swapped = swaps_dimensions(m->orientation);
    const double w0 = swapped ? m->rect.h : m->rect.w;
    const double h0 = swapped ? m->rect.w : m->rect.h;
    const Point local = transform_pin(Point{pin.dx, pin.dy}, w0, h0, m->orientation);
    return {m->rect.x + local.x, m->rect.y + local.y};
  }
  return cell_position(pin.cell);
}

namespace {

// One placement's (x, y), added and multiplied lane-wise: each lane does
// the same IEEE operation as the scalar expression, so packing x with y
// changes no bit -- it only halves the instructions per link.
using XY = double __attribute__((vector_size(16)));

XY load_xy(const double* p) {
  XY v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

}  // namespace

// Gauss-Seidel sweeps on the star model, for Width placements at once.
// `pos` holds one row per column (clusters, then fixed sources), each
// row the x, y pairs of the placements in batch order; fixed rows are
// read only. Each cluster is visited once per sweep, and for each
// placement its weighted sum runs over the cluster's links in link
// order, so a placement's arithmetic is the same at any batch width.
// When `anchors` (cluster rows only) is non-null each cluster is
// additionally pulled toward its anchor with a weight that is
// `anchor_strength` times its own connectivity weight (the SimPL-style
// legalization pull).
template <std::size_t Width>
void CellPlacementModel::sweep(std::vector<double>& pos, int iterations,
                               const std::vector<double>* anchors,
                               double anchor_strength) const {
  constexpr std::size_t kStride = 2 * Width;
  const std::size_t n = wsum_.size();
  for (int it = 0; it < iterations; ++it) {
    for (std::size_t i = 0; i < n; ++i) {
      double wsum = wsum_[i];
      if (wsum <= 0) continue;  // no links: the cluster never moves
      std::array<XY, Width> acc{};
      for (std::size_t l = begin_[i]; l < begin_[i + 1]; ++l) {
        const XY w = {weight_[l], weight_[l]};
        const double* p = &pos[column_[l] * kStride];
        for (std::size_t k = 0; k < Width; ++k) acc[k] += w * load_xy(p + 2 * k);
      }
      if (anchors) {
        const double aw = anchor_strength * wsum;
        const XY a2 = {aw, aw};
        const double* a = &(*anchors)[i * kStride];
        for (std::size_t k = 0; k < Width; ++k) acc[k] += a2 * load_xy(a + 2 * k);
        wsum += aw;
      }
      double* out = &pos[i * kStride];
      for (std::size_t k = 0; k < Width; ++k) {
        out[2 * k] = std::clamp(acc[k][0] / wsum, die_.x, die_.xmax());
        out[2 * k + 1] = std::clamp(acc[k][1] / wsum, die_.y, die_.ymax());
      }
    }
  }
}

void CellPlacementModel::solve(std::vector<double>& pos, std::size_t width, int iterations,
                               const std::vector<double>* anchors,
                               double anchor_strength) const {
  switch (width) {
    case 1: return sweep<1>(pos, iterations, anchors, anchor_strength);
    case 2: return sweep<2>(pos, iterations, anchors, anchor_strength);
    case 3: return sweep<3>(pos, iterations, anchors, anchor_strength);
    case 4: return sweep<4>(pos, iterations, anchors, anchor_strength);
    case 5: return sweep<5>(pos, iterations, anchors, anchor_strength);
    case 6: return sweep<6>(pos, iterations, anchors, anchor_strength);
    default: throw std::logic_error("CellPlacementModel::solve: batch wider than kMaxBatchWidth");
  }
}

std::vector<double> bin_capacity(const PlacedDesign& placed, const PlaceOptions& options) {
  const Rect die = placed.die();
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;
  std::vector<double> capacity(static_cast<std::size_t>(g) * g, 0.0);
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      const Rect bin{die.x + bx * bw, die.y + by * bh, bw, bh};
      double blocked = 0.0;
      for (const Rect& macro : placed.macro_blockages()) blocked += bin.overlap_area(macro);
      capacity[static_cast<std::size_t>(by) * g + bx] =
          std::max(0.0, (bin.area() - blocked) * kBinCapacityRatio);
    }
  }
  return capacity;
}

// Grid spreading: clusters leave overfull bins for the least-full
// neighbor, iterated; capacity excludes macro-covered area.
void spread_clusters(const Rect& die, std::span<const CellCluster> clusters,
                     const std::vector<double>& capacity, std::vector<Point>& pos,
                     const PlaceOptions& options) {
  static obs::Counter& rounds_run = obs::default_registry().counter("eval.spread_rounds");
  const int g = options.grid;
  const double bw = die.w / g, bh = die.h / g;

  const auto bin_of = [&](const Point& p) {
    const int bx = std::clamp(static_cast<int>((p.x - die.x) / bw), 0, g - 1);
    const int by = std::clamp(static_cast<int>((p.y - die.y) / bh), 0, g - 1);
    return std::pair{bx, by};
  };
  const auto area = [&](int cl) { return clusters[static_cast<std::size_t>(cl)].area; };

  // Each bin's clusters form a stack threaded through two flat arrays:
  // head[b] is the top cluster of bin b (-1 when empty) and below[c] the
  // cluster under c (-1 at the bottom). A push or pop takes the cluster a
  // per-bin vector's push_back or back would, so the order is the same.
  const std::size_t bins = capacity.size();
  std::vector<double> load(bins, 0.0);
  std::vector<int> head(bins, -1);
  std::vector<int> below(clusters.size(), -1);
  const auto push = [&](std::size_t b, int cl) {
    below[static_cast<std::size_t>(cl)] = head[b];
    head[b] = cl;
  };
  const auto pop = [&](std::size_t b) {
    const int cl = head[b];
    head[b] = below[static_cast<std::size_t>(cl)];
    return cl;
  };
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    const auto [bx, by] = bin_of(pos[i]);
    const std::size_t b = static_cast<std::size_t>(by) * g + bx;
    load[b] += clusters[i].area;
    push(b, static_cast<int>(i));
  }

  // One diffusion round; false when nothing moved.
  const auto diffuse = [&] {
    bool moved = false;
    for (int by = 0; by < g; ++by) {
      for (int bx = 0; bx < g; ++bx) {
        const std::size_t b = static_cast<std::size_t>(by) * g + bx;
        while (load[b] > capacity[b] && head[b] >= 0) {
          // Neighbor with the most free room. Moving toward a *strictly
          // freer* neighbor (even one that is itself overfull) lets
          // clusters diffuse out of zero-capacity macro regions.
          std::size_t best = b;
          double best_free = -1e30;
          for (const auto& [dx, dy] :
               {std::pair{1, 0}, {-1, 0}, {0, 1}, {0, -1}}) {
            const int nx = bx + dx, ny = by + dy;
            if (nx < 0 || ny < 0 || nx >= g || ny >= g) continue;
            const std::size_t nb = static_cast<std::size_t>(ny) * g + nx;
            const double free = capacity[nb] - load[nb];
            if (free > best_free) {
              best_free = free;
              best = nb;
            }
          }
          const double current_free = capacity[b] - load[b];
          if (best == b || best_free <= current_free) break;
          const int cl = pop(b);
          push(best, cl);
          load[b] -= area(cl);
          load[best] += area(cl);
          moved = true;
        }
      }
    }
    return moved;
  };

  // A round reads and writes only the loads and the stacks, so once their
  // exact bits repeat, the rounds cycle. Brent's method finds the period
  // p with one snapshot; the state after all spreading_rounds is then the
  // state (rounds left) mod p rounds on. A round that moves nothing is a
  // fixed point, so every later round is a no-op.
  const int rounds = options.spreading_rounds;
  int done = 0;
  if (rounds > 0) {
    std::vector<double> saved_load = load;
    std::vector<int> saved_head = head;
    std::vector<int> saved_below = below;
    int saved_at = 0;
    std::int64_t power = 1;  // may double past INT_MAX
    while (done < rounds) {
      ++done;
      if (!diffuse()) break;
      if (std::memcmp(load.data(), saved_load.data(), bins * sizeof(double)) == 0 &&
          head == saved_head && below == saved_below) {
        const int left = (rounds - done) % (done - saved_at);
        for (int i = 0; i < left; ++i) diffuse();
        done += left;
        break;
      }
      if (done - saved_at == power) {
        saved_load = load;
        saved_head = head;
        saved_below = below;
        saved_at = done;
        power *= 2;
      }
    }
  }
  rounds_run.add(static_cast<std::uint64_t>(done));

  // Local diffusion can stall on flat overfull plateaus; a global
  // rebalance evicts the remaining surplus to the nearest bins that still
  // have room (nearest-first keeps the wirelength damage minimal).
  {
    std::vector<std::pair<int, std::size_t>> surplus;  // (cluster, origin bin)
    surplus.reserve(clusters.size());
    for (std::size_t b = 0; b < bins; ++b) {
      while (load[b] > capacity[b] && head[b] >= 0) {
        const int cl = pop(b);
        load[b] -= area(cl);
        surplus.emplace_back(cl, b);
      }
    }
    for (const auto& [cl, origin] : surplus) {
      const int ox = static_cast<int>(origin) % g;
      const int oy = static_cast<int>(origin) / g;
      std::size_t best = origin;
      double best_score = -1e30;
      for (int y = 0; y < g; ++y) {
        for (int x = 0; x < g; ++x) {
          const std::size_t b = static_cast<std::size_t>(y) * g + x;
          const double free = capacity[b] - load[b];
          if (free < area(cl) * 0.5) continue;
          const double dist = std::abs(x - ox) + std::abs(y - oy);
          const double score = -dist;
          if (score > best_score) {
            best_score = score;
            best = b;
          }
        }
      }
      push(best, cl);
      load[best] += area(cl);
    }
  }

  // Final positions: clusters of a bin are arranged on a sub-grid inside
  // it rather than stacked at one point, so downstream density maps and
  // wirelength see a realistic within-bin distribution. Ordering by the
  // quadratic solution keeps locality inside the bin. The sort sees each
  // bin's clusters bottom to top, as they were pushed: clusters tied on
  // position (say, unlinked ones at the die centre) are common, and the
  // unstable sort places ties by their input order.
  std::vector<int> members;
  members.reserve(clusters.size());
  for (int by = 0; by < g; ++by) {
    for (int bx = 0; bx < g; ++bx) {
      const std::size_t b = static_cast<std::size_t>(by) * g + bx;
      members.clear();
      for (int cl = head[b]; cl >= 0; cl = below[static_cast<std::size_t>(cl)]) {
        members.push_back(cl);
      }
      const std::size_t n = members.size();
      if (n == 0) continue;
      std::reverse(members.begin(), members.end());
      std::sort(members.begin(), members.end(), [&](int a, int c) {
        const Point& pa = pos[static_cast<std::size_t>(a)];
        const Point& pc = pos[static_cast<std::size_t>(c)];
        return pa.y != pc.y ? pa.y < pc.y : pa.x < pc.x;
      });
      const int side = std::max(1, static_cast<int>(std::ceil(std::sqrt(n))));
      for (std::size_t k = 0; k < n; ++k) {
        const int sx = static_cast<int>(k) % side;
        const int sy = static_cast<int>(k) / side;
        pos[static_cast<std::size_t>(members[k])] =
            Point{die.x + bx * bw + (sx + 0.5) * bw / side,
                  die.y + by * bh + (sy + 0.5) * bh / side};
      }
    }
  }
}

namespace {

// SimPL-style loop after the initial solve: legalize, then re-solve for
// half the iterations with a pull of this strength toward the legal
// slots; the interleave preserves connectivity order far better than a
// single destructive spreading pass.
constexpr double kAnchorStrengths[] = {0.25, 0.6};

}  // namespace

int CellPlacementModel::sweeps() const {
  return options_.solver_iterations +
         static_cast<int>(std::size(kAnchorStrengths)) * (options_.solver_iterations / 2);
}

std::vector<PlacedDesign> place_cells(std::shared_ptr<const CellPlacementModel> model,
                                      std::span<const PlacementResult* const> placements) {
  const CellPlacementModel& m = *model;
  const PlaceOptions& options = m.options();
  const std::vector<CellCluster>& clusters = m.clustering().clusters;
  const std::size_t n = clusters.size();
  std::vector<PlacedDesign> placed;
  placed.reserve(placements.size());
  for (const PlacementResult* macros : placements) placed.emplace_back(model, *macros);

  std::vector<double> pos, legal;
  std::vector<std::vector<double>> capacity;
  std::vector<Point> slot(n);
  for (std::size_t first = 0; first < placed.size();
       first += CellPlacementModel::kMaxBatchWidth) {
    const std::size_t width =
        std::min(CellPlacementModel::kMaxBatchWidth, placed.size() - first);
    const std::size_t stride = 2 * width;
    const auto batch = std::span(placed).subspan(first, width);
    capacity.clear();
    for (const PlacedDesign& p : batch) capacity.push_back(bin_capacity(p, options));

    // Placement k's cluster positions out of and into the batch rows.
    const auto gather = [&](const std::vector<double>& rows, std::size_t k,
                            std::vector<Point>& out) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = Point{rows[i * stride + 2 * k], rows[i * stride + 2 * k + 1]};
      }
    };
    const auto scatter = [&](const std::vector<Point>& in, std::size_t k,
                             std::vector<double>& rows) {
      for (std::size_t i = 0; i < n; ++i) {
        rows[i * stride + 2 * k] = in[i].x;
        rows[i * stride + 2 * k + 1] = in[i].y;
      }
    };

    // Cluster rows start where each PlacedDesign starts them (the die
    // center); each placement's resolved fixed sources fill the rows
    // after them.
    m.load_rows(batch, pos);
    m.solve(pos, width, options.solver_iterations);
    legal.resize(n * stride);
    for (const double strength : kAnchorStrengths) {
      for (std::size_t k = 0; k < width; ++k) {
        gather(pos, k, slot);
        spread_clusters(m.die(), clusters, capacity[k], slot, options);
        scatter(slot, k, legal);
      }
      m.solve(pos, width, options.solver_iterations / 2, &legal, strength);
    }
    for (std::size_t k = 0; k < width; ++k) {
      std::vector<Point>& out = batch[k].cluster_positions();
      gather(pos, k, out);
      spread_clusters(m.die(), clusters, capacity[k], out, options);
    }
  }
  return placed;
}

std::vector<Point> initial_solve(std::shared_ptr<const CellPlacementModel> model,
                                 const PlacementResult& macros) {
  const CellPlacementModel& m = *model;
  const PlacedDesign placed(std::move(model), macros);
  std::vector<double> pos;
  m.load_rows(std::span(&placed, 1), pos);
  m.solve(pos, 1, m.options().solver_iterations);
  std::vector<Point> out(m.clustering().clusters.size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = Point{pos[2 * i], pos[2 * i + 1]};
  return out;
}

PlacedDesign place_cells(std::shared_ptr<const CellPlacementModel> model,
                         const PlacementResult& macros) {
  const PlacementResult* one[] = {&macros};
  return std::move(place_cells(std::move(model), one).front());
}

PlacedDesign place_cells(const Design& design, const HierTree& ht,
                         const PlacementResult& macros, const PlaceOptions& options) {
  return place_cells(std::make_shared<const CellPlacementModel>(design, ht, options), macros);
}

}  // namespace hidap
