#include "core/recursive_floorplan.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <functional>
#include <iterator>
#include <utility>

#include "core/decluster.hpp"
#include "core/layout_optimizer.hpp"
#include "core/target_area.hpp"
#include "obs/trace.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"

namespace hidap {

namespace {
constexpr int kMaxRecursionDepth = 64;
}

RecursiveFloorplanner::RecursiveFloorplanner(const Design& design,
                                             const CellAdjacency& adjacency,
                                             const HierTree& ht, const SeqGraph& seq,
                                             const HiDaPOptions& options)
    : design_(design), adjacency_(adjacency), ht_(ht), seq_(seq), options_(options),
      preplaced_(design.cell_count(), 0) {
  shape_curves_.resize(ht.size());
  plan_.resize(ht.size());
  for (const MacroPlacement& m : options_.job.preplaced) {
    const auto i = static_cast<std::size_t>(m.cell);
    assert(i < preplaced_.size());
    if (preplaced_[i] == 0) ++preplaced_count_;
    preplaced_[i] = 1;
  }
}

void RecursiveFloorplanner::adopt_shape_curves(const std::vector<ShapeCurve>& curves) {
  assert(curves.size() == ht_.size() && "curve set from a different hierarchy");
  shape_curves_ = curves;
  curves_ready_ = true;
}

void RecursiveFloorplanner::adopt_recursion_plan(const RecursionPlan& plan) {
  assert(plan.size() == ht_.size() && "plan from a different hierarchy");
  plan_ = plan;
  plan_adopted_ = true;
}

void RecursiveFloorplanner::generate_shape_curves() {
  // A node's curve depends only on its children's, which sit strictly
  // deeper, so the bottom-up sweep is sharded by tree depth: every rank
  // runs as one parallel_for over its nodes. Each node derives its SA
  // seed from its own index and writes only its own curve slot, so the
  // curves are bit-identical at any thread count (including the old
  // descending-id sequential sweep).
  int max_depth = 0;
  for (std::size_t i = 0; i < ht_.size(); ++i) {
    if (ht_.node(static_cast<HtNodeId>(i)).subtree_macros > 0) {
      max_depth = std::max(max_depth, ht_.depth(static_cast<HtNodeId>(i)));
    }
  }
  std::vector<std::vector<HtNodeId>> ranks(static_cast<std::size_t>(max_depth) + 1);
  for (std::size_t i = 0; i < ht_.size(); ++i) {
    const HtNodeId id = static_cast<HtNodeId>(i);
    if (ht_.node(id).subtree_macros == 0) continue;
    ranks[static_cast<std::size_t>(ht_.depth(id))].push_back(id);
  }
  const int lanes = effective_thread_count(options_.num_threads);
  for (std::size_t d = ranks.size(); d-- > 0;) {
    const std::vector<HtNodeId>& rank = ranks[d];
    parallel_for(
        rank.size(),
        [&](std::size_t r) {
          const std::size_t i = static_cast<std::size_t>(rank[r]);
          const HtNodeId id = rank[r];
          const HtNode& node = ht_.node(id);
          if (node.is_macro_leaf()) {
            const MacroDef& def = design_.macro_def_of(node.macro_cell);
            // The halo inflates the footprint the floorplanner must reserve.
            const double halo2 = 2.0 * options_.macro_halo;
            shape_curves_[i] =
                ShapeCurve::for_rect(def.w + halo2, def.h + halo2, /*rotate=*/true);
            return;
          }
          std::vector<ShapeCurve> child_curves;
          for (const HtNodeId c : node.children) {
            if (ht_.macro_count(c) > 0) {
              child_curves.push_back(shape_curves_[static_cast<std::size_t>(c)]);
            }
          }
          if (child_curves.empty()) return;  // defensive; cannot happen
          if (child_curves.size() == 1) {
            shape_curves_[i] = std::move(child_curves.front());
            return;
          }
          AreaFloorplanOptions fp = options_.shape_fp;
          fp.anneal.seed = options_.job.seed * 0x9e3779b9ULL + i;
          // A stopped job winds down fast: each node's packing anneal
          // exits at its first cooperative check and the merged
          // best-so-far curve (the initial slicing at worst) keeps the
          // curve set structurally valid for the fallback recursion.
          fp.anneal.control = options_.job.control;
          shape_curves_[i] = pack_shape_curve(child_curves, fp);
        },
        lanes);
  }
  curves_ready_ = true;
}

PlacementResult RecursiveFloorplanner::run(const Rect& die) {
  if (!curves_ready_) generate_shape_curves();
  die_ = die;
  result_ = PlacementResult{};
  region_.assign(ht_.size(), Rect{});
  region_valid_.assign(ht_.size(), 0);
  for (const MacroPlacement& m : options_.job.preplaced) result_.macros.push_back(m);
  if (!plan_adopted_) plan_recursion();
  set_region(ht_.root(), die);
  if (unfixed_macro_count(ht_.root()) > 0) {
    // The root's inherited snapshot holds exactly the preplaced macro
    // centers (the only estimates that exist before the first level).
    EstimateSnapshot initial(design_.cell_count());
    for (const MacroPlacement& m : options_.job.preplaced) {
      initial.set(m.cell, m.rect.center());
    }
    SubtreeResult root;
    floorplan_level(ht_.root(), die, 0, initial, root);
    result_.macros.insert(result_.macros.end(),
                          std::make_move_iterator(root.macros.begin()),
                          std::make_move_iterator(root.macros.end()));
    result_.snapshots = std::move(root.snapshots);
  }
  return std::move(result_);
}

int RecursiveFloorplanner::unfixed_macro_count(HtNodeId node) const {
  if (preplaced_count_ == 0) return ht_.macro_count(node);
  int count = 0;
  for (const CellId m : ht_.macros_under(node)) count += !is_preplaced(m);
  return count;
}

// The recursion structure is a pure function of the hierarchy tree, the
// declustering thresholds and the preplaced set -- never of the evolving
// estimates -- so the whole schedule is computable before any layout
// runs. Ordinals are assigned in DFS preorder, exactly the order a
// sequential DFS increments its level counter, so anneal seeds are
// independent of execution order.
void RecursiveFloorplanner::plan_recursion() {
  for (LevelPlan& p : plan_) p = LevelPlan{};
  std::uint64_t counter = 0;
  if (unfixed_macro_count(ht_.root()) > 0) plan_level(ht_.root(), 0, counter);
}

void RecursiveFloorplanner::plan_level(HtNodeId nh, int depth, std::uint64_t& counter) {
  LevelPlan& plan = plan_[static_cast<std::size_t>(nh)];
  plan.planned = true;
  if (depth > kMaxRecursionDepth) {
    plan.fallback = true;
    return;
  }
  const double area_nh = ht_.area(nh);
  Declustering dec = hierarchical_declustering(
      ht_, nh, options_.open_area_frac * area_nh, options_.min_area_frac * area_nh);
  if (dec.hcb.empty()) {
    plan.fallback = true;
    return;
  }
  plan.ordinal = ++counter;
  plan.hcb = std::move(dec.hcb);
  for (const HtNodeId block : plan.hcb) {
    if (unfixed_macro_count(block) > 1) plan_level(block, depth + 1, counter);
  }
}

void RecursiveFloorplanner::update_estimates(HtNodeId block, const Point& center,
                                             EstimateSnapshot& child) {
  for (const CellId macro : ht_.macros_under(block)) {
    if (is_preplaced(macro)) continue;  // engineer-placed: keep exact
    child.set(macro, center);
  }
}

void RecursiveFloorplanner::floorplan_level(HtNodeId nh, const Rect& region, int depth,
                                            const EstimateSnapshot& inherited,
                                            SubtreeResult& out) {
  set_region(nh, region);
  obs::Span span("level", "scheduler");
  span.arg("ordinal",
           static_cast<std::int64_t>(plan_[static_cast<std::size_t>(nh)].ordinal));
  span.arg("depth", depth);
  JobControl* control = options_.job.control;
  if (control != nullptr && control->should_stop()) {
    // Cancelled / past deadline: the whole subtree degrades to the
    // cheap grid prototype inside its region -- every macro still gets
    // a position (a valid partial-quality result) and the remaining
    // work is O(macros), so the stop is prompt at any depth. Stops are
    // sticky, so sibling tasks observe the same predicate and wind
    // down too.
    fallback_grid_place(nh, region, out);
    return;
  }
  if (control != nullptr) {
    control->post_progress("level %s depth=%d region=%.0fx%.0f", ht_.path(nh).c_str(),
                           depth, region.w, region.h);
  }
  const LevelPlan& plan = plan_[static_cast<std::size_t>(nh)];
  assert(plan.planned && "floorplan_level on an unplanned node");
  if (plan.fallback) {
    if (depth > kMaxRecursionDepth) {
      HIDAP_LOG_WARN("recursion depth cap at %s; grid fallback", ht_.path(nh).c_str());
    } else {
      HIDAP_LOG_WARN("no blocks at level %s", ht_.path(nh).c_str());
    }
    fallback_grid_place(nh, region, out);
    return;
  }
  const std::vector<HtNodeId>& hcb = plan.hcb;

  // --- Algorithm 2, step 4: target area assignment.
  const TargetAreaResult areas = assign_target_areas(design_, adjacency_, ht_, nh, hcb);

  // --- step 5: dataflow inference. Every outside-macro terminal is
  // anchored to the parent's committed layout (the inherited snapshot).
  const LevelDataflow flow =
      infer_level_dataflow(design_, ht_, seq_, nh, hcb, inherited, options_);

  // --- step 6: layout generation.
  LayoutProblem problem;
  problem.region = region;
  problem.terminals = flow.terminal_positions;
  problem.affinity = &flow.affinity;
  problem.blocks.reserve(hcb.size());
  for (std::size_t b = 0; b < hcb.size(); ++b) {
    BudgetBlock block;
    if (ht_.macro_count(hcb[b]) > 0) {
      block.gamma = shape_curves_[static_cast<std::size_t>(hcb[b])];
    }
    block.am = areas.minimum_area[b];
    block.at = areas.target_area[b];
    problem.blocks.push_back(std::move(block));
  }
  AnnealOptions anneal = options_.layout_anneal;
  anneal.seed = options_.job.seed * 0xd1342543de82ef95ULL + plan.ordinal;
  anneal.control = control;
  const LayoutSolution layout = optimize_layout(problem, anneal);

  // Snapshot for Fig. 1-style visualization.
  LevelSnapshot snap;
  snap.level = nh;
  snap.region = region;
  snap.blocks = hcb;
  snap.block_rects = layout.rects;
  snap.depth = depth;
  for (const HtNodeId b : hcb) snap.block_macro_counts.push_back(ht_.macro_count(b));
  out.snapshots.push_back(std::move(snap));

  // Commit this level's block regions and prototype centers so deeper
  // levels see each block's position. The child snapshot is the
  // inherited view plus exactly these center writes, shared read-only by
  // every child task -- and only materialized when some block actually
  // recurses (leaf-most levels skip the copy).
  const std::size_t nb = hcb.size();
  std::vector<int> unfixed(nb);
  bool any_recurse = false;
  for (std::size_t b = 0; b < nb; ++b) {
    unfixed[b] = unfixed_macro_count(hcb[b]);
    any_recurse = any_recurse || unfixed[b] > 1;
  }
  EstimateSnapshot child_snap;
  if (any_recurse) child_snap = inherited;
  for (std::size_t b = 0; b < nb; ++b) {
    set_region(hcb[b], layout.rects[b]);
    if (any_recurse && unfixed[b] > 0) {
      update_estimates(hcb[b], layout.rects[b].center(), child_snap);
    }
  }

  // --- steps 7-11: recurse / fix, one slot per block. Every block's
  // work touches only its own subtree's region slots and its own
  // fragment, so the scheduler may run the slots in any order.
  std::vector<SubtreeResult> child(nb);
  const auto process_block = [&](std::size_t b) {
    const HtNodeId block = hcb[b];
    const int macros = unfixed[b];
    if (macros > 1) {
      floorplan_level(block, layout.rects[b], depth + 1, child_snap, child[b]);
    } else if (macros == 1) {
      // Attraction point: affinity-weighted centroid of the other Gdf
      // nodes (movable centers + fixed terminals).
      const Point attract = flow.attraction_point(b, layout.rects, region.center());
      fix_single_macro(block, layout.rects[b], attract, child[b]);
    }
  };
  if (!options_.parallel_levels) {
    // Sequential DFS: computes exactly what the scheduler computes (the
    // differential oracle).
    for (std::size_t b = 0; b < nb; ++b) process_block(b);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(nb);
    for (std::size_t b = 0; b < nb; ++b) {
      tasks.push_back([&process_block, b] { process_block(b); });
    }
    parallel_invoke(tasks, effective_thread_count(options_.num_threads));
  }

  // Post-join splice in DFS block order: byte-stable at any thread count.
  for (std::size_t b = 0; b < nb; ++b) {
    out.macros.insert(out.macros.end(), std::make_move_iterator(child[b].macros.begin()),
                      std::make_move_iterator(child[b].macros.end()));
    out.snapshots.insert(out.snapshots.end(),
                         std::make_move_iterator(child[b].snapshots.begin()),
                         std::make_move_iterator(child[b].snapshots.end()));
  }
}

// Places the block's only macro into the corner of `rect` closest to the
// attraction point (Algorithm 2, line 11: "fix position in the corner of
// the available area that minimizes wirelength").
void RecursiveFloorplanner::fix_single_macro(HtNodeId block, const Rect& rect,
                                             const Point& attract, SubtreeResult& out) {
  CellId cell = kInvalidId;
  for (const CellId m : ht_.macros_under(block)) {
    if (!is_preplaced(m)) {
      cell = m;
      break;
    }
  }
  if (cell == kInvalidId) return;  // everything here was preplaced
  const MacroDef& def = design_.macro_def_of(cell);
  const double halo = options_.macro_halo;

  struct Candidate {
    Rect r;
    Orientation o;
    double cost;
  };
  std::vector<Candidate> candidates;
  for (const Orientation o : {Orientation::R0, Orientation::R90}) {
    const Point size = oriented_size(def.w, def.h, o);
    // Clamp into the rect (inset by the halo) even when it overflows;
    // the budget layout penalizes the overflow case already.
    const double w = size.x, h = size.y;
    const double x0 = rect.x + halo, y0 = rect.y + halo;
    const double x1 = std::max(x0, rect.xmax() - halo - w);
    const double y1 = std::max(y0, rect.ymax() - halo - h);
    const bool fits = w + 2 * halo <= rect.w + 1e-9 && h + 2 * halo <= rect.h + 1e-9;
    for (const auto& [cx, cy] : {std::pair{x0, y0}, {x1, y0}, {x0, y1}, {x1, y1}}) {
      const Rect r{cx, cy, w, h};
      double cost = manhattan(r.center(), attract);
      if (!fits) cost += (w * h);  // discourage non-fitting rotation
      candidates.push_back({r, o, cost});
    }
  }
  const auto best = std::min_element(
      candidates.begin(), candidates.end(),
      [](const Candidate& a, const Candidate& b) { return a.cost < b.cost; });
  Rect placed = best->r;
  // A stopped level keeps its best-so-far layout, whose block rects may
  // overflow the region (overflow is penalized, not forbidden, and the
  // legalize post-pass is skipped on stop). Clamp into the die on that
  // path so the partial result stays valid; uncancelled runs take the
  // historical geometry untouched.
  const JobControl* control = options_.job.control;
  if (control != nullptr && control->should_stop()) {
    placed.x = std::clamp(placed.x, die_.x, std::max(die_.x, die_.xmax() - placed.w));
    placed.y = std::clamp(placed.y, die_.y, std::max(die_.y, die_.ymax() - placed.h));
  }
  out.macros.push_back(MacroPlacement{cell, placed, best->o});
  set_region(block, placed);
}

// Defensive fallback: rows of macros across the region. Only reached on
// degenerate hierarchies (see the depth cap).
void RecursiveFloorplanner::fallback_grid_place(HtNodeId nh, const Rect& region,
                                               SubtreeResult& out) {
  std::vector<CellId> macros;
  for (const CellId m : ht_.macros_under(nh)) {
    if (!is_preplaced(m)) macros.push_back(m);
  }
  if (macros.empty()) return;
  const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(macros.size()))));
  const int rows = static_cast<int>((macros.size() + cols - 1) / cols);
  // On a cooperative stop this fallback can be handed an arbitrarily
  // small region deep in the recursion, where the unclamped grid would
  // spill macros outside the die. Validity (every macro inside the die)
  // outranks overlap on that path; the degenerate-hierarchy calls keep
  // the historical unclamped geometry bit for bit.
  const JobControl* control = options_.job.control;
  const bool clamp_to_die = control != nullptr && control->should_stop();
  for (std::size_t i = 0; i < macros.size(); ++i) {
    const MacroDef& def = design_.macro_def_of(macros[i]);
    const int r = static_cast<int>(i) / cols;
    const int c = static_cast<int>(i) % cols;
    double x = region.x + region.w * c / cols;
    double y = region.y + region.h * r / rows;
    if (clamp_to_die) {
      x = std::clamp(x, die_.x, std::max(die_.x, die_.xmax() - def.w));
      y = std::clamp(y, die_.y, std::max(die_.y, die_.ymax() - def.h));
    }
    out.macros.push_back(
        MacroPlacement{macros[i], Rect{x, y, def.w, def.h}, Orientation::R0});
  }
}

}  // namespace hidap
