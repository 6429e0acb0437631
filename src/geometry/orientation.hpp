#pragma once
// Macro orientations. DEF-style naming: R0/R90/R180/R270 are rotations,
// MX/MY/MX90/MY90 are mirrored variants. The flipping post-process of the
// paper ("memory flipping") only uses the footprint-preserving subset
// {R0, MX, MY, R180}.

#include <array>
#include <string_view>

#include "geometry/geometry.hpp"

namespace hidap {

enum class Orientation : int { R0 = 0, R90, R180, R270, MX, MY, MX90, MY90 };

inline constexpr std::array<Orientation, 8> kAllOrientations = {
    Orientation::R0,  Orientation::R90,  Orientation::R180, Orientation::R270,
    Orientation::MX,  Orientation::MY,   Orientation::MX90, Orientation::MY90};

/// Footprint-preserving orientations (width/height unchanged).
inline constexpr std::array<Orientation, 4> kFlipOrientations = {
    Orientation::R0, Orientation::MX, Orientation::MY, Orientation::R180};

/// True when the orientation swaps width and height.
inline bool swaps_dimensions(Orientation o) {
  switch (o) {
    case Orientation::R90:
    case Orientation::R270:
    case Orientation::MX90:
    case Orientation::MY90:
      return true;
    default:
      return false;
  }
}

std::string_view to_string(Orientation o);

/// Transforms a pin offset given in the macro's local frame (origin =
/// lower-left, size w x h in R0) into the frame of the oriented macro.
/// The oriented macro keeps its lower-left corner at the local origin.
/// Inline: pin-level HPWL loops (macro flipping, the evaluator) call it
/// per pin.
inline Point transform_pin(const Point& pin, double w, double h, Orientation o) {
  // First apply the linear part around the origin, then shift so the
  // transformed macro's bounding box sits at the origin again.
  switch (o) {
    case Orientation::R0: return {pin.x, pin.y};
    case Orientation::R90: return {h - pin.y, pin.x};
    case Orientation::R180: return {w - pin.x, h - pin.y};
    case Orientation::R270: return {pin.y, w - pin.x};
    case Orientation::MX: return {pin.x, h - pin.y};      // mirror about X axis
    case Orientation::MY: return {w - pin.x, pin.y};      // mirror about Y axis
    case Orientation::MX90: return {pin.y, pin.x};        // MX then R90
    case Orientation::MY90: return {h - pin.y, w - pin.x};
  }
  return pin;
}

/// Size of the bounding box of the macro after orientation.
Point oriented_size(double w, double h, Orientation o);

}  // namespace hidap
