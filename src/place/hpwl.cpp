#include "place/hpwl.hpp"

namespace hidap {

WirelengthReport total_hpwl(const PlacedDesign& placed) {
  WirelengthReport report;
  report.nets = placed.model().multi_pin_nets();
  placed.for_each_net_box(
      [&](const BoundingBox& box) { report.total_um += box.half_perimeter(); });
  report.total_m = report.total_um * 1e-6;
  return report;
}

}  // namespace hidap
