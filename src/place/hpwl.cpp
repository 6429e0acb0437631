#include "place/hpwl.hpp"

namespace hidap {

double net_hpwl(const PlacedDesign& placed, NetId net_id) {
  const std::span<const NetPin> pins = placed.design().pins(net_id);
  if (pins.size() < 2) return 0.0;
  BoundingBox box;
  for (const NetPin& p : pins) box.absorb(placed.pin_position(p));
  return box.half_perimeter();
}

WirelengthReport total_hpwl(const PlacedDesign& placed) {
  WirelengthReport report;
  report.nets = placed.model().multi_pin_nets();
  placed.for_each_net_box(
      [&](const BoundingBox& box) { report.total_um += box.half_perimeter(); });
  report.total_m = report.total_um * 1e-6;
  return report;
}

WirelengthReport total_hpwl_per_net(const PlacedDesign& placed) {
  WirelengthReport report;
  const std::size_t n = placed.design().net_count();
  for (std::size_t i = 0; i < n; ++i) {
    const double wl = net_hpwl(placed, static_cast<NetId>(i));
    if (wl > 0 || placed.design().degree(static_cast<NetId>(i)) >= 2) {
      ++report.nets;
    }
    report.total_um += wl;
  }
  report.total_m = report.total_um * 1e-6;
  return report;
}

}  // namespace hidap
