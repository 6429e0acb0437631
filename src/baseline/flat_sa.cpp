#include "baseline/flat_sa.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>

#include "baseline/flat_cost.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace hidap {

PlacementResult place_macros_flat_sa(const Design& design, const SeqGraph& seq,
                                     const FlatSaOptions& options) {
  Timer timer;
  const Rect die{0, 0, design.die().w, design.die().h};

  std::vector<MacroPlacement> state;
  {
    // Initial grid.
    const std::vector<CellId> macros = design.macros();
    const int cols = std::max(1, static_cast<int>(std::ceil(std::sqrt(macros.size()))));
    for (std::size_t i = 0; i < macros.size(); ++i) {
      const MacroDef& def = design.macro_def_of(macros[i]);
      const int c = static_cast<int>(i) % cols;
      const int r = static_cast<int>(i) / cols;
      state.push_back({macros[i],
                       Rect{die.x + die.w * (c + 0.15) / cols,
                            die.y + die.h * (r + 0.15) / cols, def.w, def.h},
                       Orientation::R0});
    }
  }

  const FlatCostModel cost(design, seq, die, options.overlap_weight);
  std::vector<MacroPlacement> best = state;
  const double initial = cost(state);

  Rng rng(options.anneal.seed ^ 0xe7037ed1a0b428dbULL);

  // One random move, shared by both evaluation modes so they consume the
  // identical RNG stream. `save` is called with each macro index about to
  // be mutated, before the mutation; returns the moved indices.
  const auto propose_move = [&rng, &die](std::vector<MacroPlacement>& s, auto&& save,
                                         std::array<std::size_t, 2>& moved) -> std::size_t {
    const std::size_t i = rng.next_below(s.size());
    const int kind = rng.next_int(0, 2);
    if (kind == 0 && s.size() >= 2) {
      // Swap centers of two macros.
      const std::size_t j = rng.next_below(s.size());
      save(i);
      if (j != i) save(j);
      const Point ci = s[i].rect.center();
      const Point cj = s[j].rect.center();
      auto recenter = [](MacroPlacement& m, const Point& c) {
        m.rect.x = c.x - m.rect.w / 2;
        m.rect.y = c.y - m.rect.h / 2;
      };
      recenter(s[i], cj);
      recenter(s[j], ci);
      moved = {i, j};
      return j == i ? 1 : 2;
    }
    save(i);
    if (kind == 1) {
      // Random displacement (up to 20% of the die).
      s[i].rect.x += rng.next_double(-0.2, 0.2) * die.w;
      s[i].rect.y += rng.next_double(-0.2, 0.2) * die.h;
      s[i].rect.x = std::clamp(s[i].rect.x, die.x,
                               std::max(die.x, die.xmax() - s[i].rect.w));
      s[i].rect.y = std::clamp(s[i].rect.y, die.y,
                               std::max(die.y, die.ymax() - s[i].rect.h));
    } else {
      // Rotate 90 degrees in place.
      MacroPlacement& m = s[i];
      const Point c = m.rect.center();
      std::swap(m.rect.w, m.rect.h);
      m.rect.x = c.x - m.rect.w / 2;
      m.rect.y = c.y - m.rect.h / 2;
      m.orientation = swaps_dimensions(m.orientation) ? Orientation::R0 : Orientation::R90;
    }
    moved = {i, i};
    return 1;
  };

  AnnealHooks hooks;
  std::optional<IncrementalFlatCost> inc;
  std::vector<MacroPlacement> backup;  // full-recompute mode only
  struct UndoEntry {
    std::size_t idx = 0;
    MacroPlacement m;
  };
  std::array<UndoEntry, 2> undo;  // incremental mode only
  std::size_t undo_count = 0;

  if (options.anneal.incremental) {
    inc.emplace(cost, state);
    hooks.propose = [&]() {
      undo_count = 0;
      std::array<std::size_t, 2> moved{};
      const std::size_t count = propose_move(
          state, [&](std::size_t k) { undo[undo_count++] = {k, state[k]}; }, moved);
      return inc->propose(state, std::span<const std::size_t>(moved.data(), count));
    };
    hooks.commit = [&]() { inc->commit(); };
    hooks.reject = [&]() {
      for (std::size_t u = undo_count; u-- > 0;) state[undo[u].idx] = undo[u].m;
      inc->rollback();
    };
  } else {
    hooks.propose = [&]() {
      backup = state;
      std::array<std::size_t, 2> moved{};
      propose_move(state, [](std::size_t) {}, moved);
      return cost(state);
    };
    hooks.reject = [&]() { state = backup; };
  }
  hooks.on_new_best = [&](double) { best = state; };

  AnnealOptions anneal_options = options.anneal;
  anneal_options.obs_site = "anneal_flat";
  anneal(initial, anneal_options, hooks);

  PlacementResult result;
  result.macros = std::move(best);
  result.runtime_seconds = timer.seconds();
  result.flow_name = "FlatSA";
  HIDAP_LOG_INFO("FlatSA placed %zu macros in %.2fs", result.macros.size(),
                 result.runtime_seconds);
  return result;
}

}  // namespace hidap
