#include "netlist/array_naming.hpp"

#include <algorithm>
#include <tuple>

#include "util/string_utils.hpp"

namespace hidap {

ArrayClusters cluster_arrays(const Design& design) {
  // One record per flop and port cell, its name parsed once; sorting by
  // (hier, kind, base, index, id) puts every group in one run, groups in
  // key order and members by bit index (names may arrive shuffled).
  struct Record {
    HierId hier;
    CellKind kind;
    std::string_view base;
    int index;
    CellId id;
    auto key() const { return std::tie(hier, kind, base, index, id); }
  };
  const std::vector<Cell>& cells = design.cells();
  const auto grouped = [](const Cell& c) { return c.kind == CellKind::Flop || is_port(c.kind); };
  std::vector<Record> records;
  records.reserve(static_cast<std::size_t>(std::count_if(cells.begin(), cells.end(), grouped)));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const Cell& c = cells[i];
    if (!grouped(c)) continue;
    const std::string_view name = design.cell_name(static_cast<CellId>(i));
    const auto parsed = parse_array_name(name);
    records.push_back({c.hier, c.kind, parsed ? parsed->base : name,
                       parsed ? parsed->index : 0, static_cast<CellId>(i)});
  }
  std::sort(records.begin(), records.end(),
            [](const Record& a, const Record& b) { return a.key() < b.key(); });

  ArrayClusters out;
  out.members.reserve(records.size());
  for (const Record& r : records) {
    if (out.groups.empty() || out.groups.back().hier != r.hier ||
        out.groups.back().kind != r.kind || out.groups.back().base != r.base) {
      out.groups.push_back({r.base, r.hier, r.kind,
                            static_cast<std::uint32_t>(out.members.size()), 0});
    }
    ++out.groups.back().count;
    out.members.push_back(r.id);
  }
  return out;
}

}  // namespace hidap
