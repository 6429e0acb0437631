// Ablation bench for the main design choices of this reproduction:
//   1. lambda sweep  -- block-flow vs macro-flow balance (paper IV-D)
//   2. k sweep       -- latency decay exponent in score(h, k)
//   3. flow ablation -- HiDaP vs flat SA (no hierarchy/dataflow) vs walls
//   4. flipping      -- macro orientation post-process on/off

#include <cstdio>

#include "baseline/flat_sa.hpp"
#include "baseline/wall_packer.hpp"
#include "bench_common.hpp"
#include "core/hidap.hpp"

using namespace hidap;
using namespace hidap::benchutil;

int main() {
  set_log_level(LogLevel::Warn);
  const double scale = env_scale(0.03);
  const SuiteEntry entry = suite_circuit("c5", scale);
  const Design design = generate_circuit(entry.spec);
  const FlowOptions fo = bench_flow_options();
  const PlacementContext context(design, fo.hidap.seq);
  std::printf("Ablations on c5 (%d macros, %d cells)\n\n", entry.spec.macro_count,
              entry.spec.target_cells);

  const auto eval_wl = [&](const PlacementResult& r) {
    return evaluate_placement(design, context.ht, context.seq, r, fo.eval).wl_m;
  };

  // --- 1. lambda sweep ---------------------------------------------------
  std::printf("lambda sweep (paper flow uses best of {0.2, 0.5, 0.8}):\n");
  std::printf("%8s %10s\n", "lambda", "WL(m)");
  print_rule(22);
  for (const double lambda : {0.0, 0.2, 0.5, 0.8, 1.0}) {
    HiDaPOptions o = fo.hidap;
    o.lambda = lambda;
    o.job.seed = 5;
    std::printf("%8.1f %10.3f\n", lambda, eval_wl(place_macros(design, context, o)));
  }

  // --- 2. latency exponent k ----------------------------------------------
  std::printf("\nlatency decay k in score(h,k) = sum bits/latency^k:\n");
  std::printf("%8s %10s\n", "k", "WL(m)");
  print_rule(22);
  for (const double k : {0.0, 1.0, 2.0, 3.0}) {
    HiDaPOptions o = fo.hidap;
    o.k = k;
    o.job.seed = 5;
    std::printf("%8.1f %10.3f\n", k, eval_wl(place_macros(design, context, o)));
  }

  // --- 3. flow ablation ----------------------------------------------------
  std::printf("\nflow ablation:\n");
  std::printf("%-28s %10s\n", "flow", "WL(m)");
  print_rule(40);
  {
    const PlacementResult hidap = run_hidap_flow(design, context, fo);
    std::printf("%-28s %10.3f\n", "HiDaP (hier + dataflow)", eval_wl(hidap));
  }
  {
    FlatSaOptions o;
    o.anneal = fo.hidap.layout_anneal;
    o.anneal.moves_per_temperature *= 8;  // flat SA needs far more moves
    const PlacementResult flat = place_macros_flat_sa(design, context.seq, o);
    std::printf("%-28s %10.3f\n", "flat SA (no hierarchy)", eval_wl(flat));
  }
  {
    WallPackOptions o;
    o.anneal = fo.hidap.layout_anneal;
    const PlacementResult walls =
        place_macros_walls(design, context.ht, context.seq, o);
    std::printf("%-28s %10.3f\n", "wall packing (IndEDA)", eval_wl(walls));
  }

  // --- 4. macro flipping ----------------------------------------------------
  std::printf("\nmacro flipping post-process:\n");
  {
    HiDaPOptions o = fo.hidap;
    o.job.seed = 5;
    o.flipping_passes = 0;
    const double without = eval_wl(place_macros(design, context, o));
    o.flipping_passes = 4;
    const double with_flip = eval_wl(place_macros(design, context, o));
    std::printf("  WL without flipping: %.3f m\n", without);
    std::printf("  WL with    flipping: %.3f m  (%.2f%% change)\n", with_flip,
                100.0 * (with_flip - without) / without);
  }
  return 0;
}
