#include "geometry/orientation.hpp"

namespace hidap {

std::string_view to_string(Orientation o) {
  switch (o) {
    case Orientation::R0: return "R0";
    case Orientation::R90: return "R90";
    case Orientation::R180: return "R180";
    case Orientation::R270: return "R270";
    case Orientation::MX: return "MX";
    case Orientation::MY: return "MY";
    case Orientation::MX90: return "MX90";
    case Orientation::MY90: return "MY90";
  }
  return "R0";
}

Point oriented_size(double w, double h, Orientation o) {
  return swaps_dimensions(o) ? Point{h, w} : Point{w, h};
}

}  // namespace hidap
