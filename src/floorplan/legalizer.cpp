#include "floorplan/legalizer.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "util/log.hpp"

namespace hidap {

namespace {

constexpr int kSpiralSteps = 400;       // fallback search budget per macro
constexpr double kStepFraction = 0.02;  // spiral step as a fraction of die size

Rect inflate(const Rect& r, double halo) {
  return Rect{r.x - halo, r.y - halo, r.w + 2 * halo, r.h + 2 * halo};
}

// Minimum displacement of `r` that clears `obstacle` along one axis.
// Returns the four candidate single-axis pushes.
struct Push {
  double dx = 0.0, dy = 0.0;
  double cost() const { return std::abs(dx) + std::abs(dy); }
};

std::array<Push, 4> escape_pushes(const Rect& r, const Rect& obstacle) {
  return {Push{obstacle.x - r.xmax(), 0.0},   // push left
          Push{obstacle.xmax() - r.x, 0.0},   // push right
          Push{0.0, obstacle.y - r.ymax()},   // push down
          Push{0.0, obstacle.ymax() - r.y}};  // push up
}

bool inside_die(const Rect& r, const Rect& die, double eps = 1e-9) {
  return r.x >= die.x - eps && r.y >= die.y - eps && r.xmax() <= die.xmax() + eps &&
         r.ymax() <= die.ymax() + eps;
}

Rect clamp_to_die(Rect r, const Rect& die) {
  r.x = std::clamp(r.x, die.x, std::max(die.x, die.xmax() - r.w));
  r.y = std::clamp(r.y, die.y, std::max(die.y, die.ymax() - r.h));
  return r;
}

}  // namespace

double total_overlap(const std::vector<MacroPlacement>& macros, double halo) {
  double overlap = 0.0;
  for (std::size_t i = 0; i < macros.size(); ++i) {
    for (std::size_t j = i + 1; j < macros.size(); ++j) {
      overlap += inflate(macros[i].rect, halo).overlap_area(macros[j].rect);
    }
  }
  return overlap;
}

LegalizeStats legalize_macros(const Design& design, std::vector<MacroPlacement>& macros,
                              const LegalizeOptions& options) {
  LegalizeStats stats;
  const Rect die{0, 0, design.die().w, design.die().h};
  stats.overlap_before = total_overlap(macros, options.halo);

  // Process by placement area descending: big macros claim space first
  // and small ones maneuver around them. User-fixed macros come first of
  // all and are never displaced.
  std::vector<std::size_t> order(macros.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    const bool fa = options.fixed.count(macros[a].cell) > 0;
    const bool fb = options.fixed.count(macros[b].cell) > 0;
    if (fa != fb) return fa;
    return macros[a].rect.area() > macros[b].rect.area();
  });

  std::vector<std::size_t> placed;
  placed.reserve(macros.size());
  const double step = kStepFraction * std::max(die.w, die.h) + 1e-9;

  for (const std::size_t idx : order) {
    if (options.fixed.count(macros[idx].cell)) {
      placed.push_back(idx);
      continue;
    }
    Rect r = clamp_to_die(macros[idx].rect, die);
    const Point original_center = macros[idx].rect.center();

    const auto conflicts = [&](const Rect& candidate) {
      for (const std::size_t p : placed) {
        if (inflate(macros[p].rect, options.halo).intersects(candidate)) return true;
      }
      return !inside_die(candidate, die);
    };

    // Iteratively resolve conflicts with minimum single-axis pushes.
    int guard = 64;
    while (guard-- > 0) {
      const std::size_t* hit = nullptr;
      for (const std::size_t& p : placed) {
        if (inflate(macros[p].rect, options.halo).intersects(r)) {
          hit = &p;
          break;
        }
      }
      if (!hit) break;
      const Rect obstacle = inflate(macros[*hit].rect, options.halo);
      Push best{};
      double best_cost = std::numeric_limits<double>::max();
      for (const Push& push : escape_pushes(r, obstacle)) {
        Rect moved = r;
        moved.x += push.dx;
        moved.y += push.dy;
        if (!inside_die(moved, die)) continue;
        if (push.cost() < best_cost) {
          best_cost = push.cost();
          best = push;
        }
      }
      if (best_cost == std::numeric_limits<double>::max()) break;  // boxed in
      r.x += best.dx;
      r.y += best.dy;
    }

    if (conflicts(r)) {
      // Spiral search around the original center.
      bool found = false;
      double angle = 0.0, radius = step;
      for (int s = 0; s < kSpiralSteps; ++s) {
        Rect candidate = r;
        candidate.x = original_center.x - r.w / 2 + radius * std::cos(angle);
        candidate.y = original_center.y - r.h / 2 + radius * std::sin(angle);
        candidate = clamp_to_die(candidate, die);
        if (!conflicts(candidate)) {
          r = candidate;
          found = true;
          break;
        }
        angle += 0.9;
        radius += step / 6.0;
      }
      if (!found) ++stats.unresolved;
    }

    if (manhattan(r.center(), original_center) > 1e-9) {
      ++stats.moved;
      stats.total_displacement += manhattan(r.center(), original_center);
    }
    macros[idx].rect = r;
    placed.push_back(idx);
  }

  stats.overlap_after = total_overlap(macros, 0.0);
  if (stats.unresolved > 0) {
    HIDAP_LOG_WARN("legalizer: %d macros unresolved (overlap %.1f um^2)",
                   stats.unresolved, stats.overlap_after);
  }
  return stats;
}

}  // namespace hidap
