// Reproduces paper Table II: average WL (geomean, normalized to handFP),
// average WNS% and effort for the three flows over the benchmark suite.
//
// Paper reference values:
//   IndEDA  WL 1.143  WNS -39.1%  effort 10-30 min (CPU)
//   HiDaP   WL 1.013  WNS -24.6%  effort 0.5-2 h   (CPU)
//   handFP  WL 1.000  WNS -17.9%  effort 2-4 weeks (engineers)
//
// "Effort" is placement time only: the sum of the flow's macro-placement
// runs (every sweep configuration). Evaluating the placements -- cell
// placement, HPWL, congestion, timing -- is the measurement, not the
// flow, and is not counted.

#include <cstdio>
#include <vector>

#include "bench_common.hpp"
#include "eval/report.hpp"

using namespace hidap;
using namespace hidap::benchutil;

int main() {
  set_log_level(LogLevel::Warn);
  const double scale = env_scale(0.05);
  const auto suite = selected_suite(scale);

  std::vector<double> wl_ind, wl_hid, wl_hand;
  double wns_ind = 0, wns_hid = 0, wns_hand = 0;
  double t_ind = 0, t_hid = 0, t_hand = 0;

  std::printf("Reproducing Table II (suite scale %.3f of paper cell counts, %d threads)\n",
              scale, ThreadPool::default_thread_count());
  print_rule();
  const std::vector<FlowComparison> results = run_suite_flows(suite, "table2");
  for (const FlowComparison& cmp : results) {
    wl_ind.push_back(cmp.indeda.wl_norm);
    wl_hid.push_back(cmp.hidap.wl_norm);
    wl_hand.push_back(cmp.handfp.wl_norm);
    wns_ind += cmp.indeda.wns_percent;
    wns_hid += cmp.hidap.wns_percent;
    wns_hand += cmp.handfp.wns_percent;
    t_ind += cmp.indeda.runtime_s;
    t_hid += cmp.hidap.runtime_s;
    t_hand += cmp.handfp.runtime_s;
  }
  const double n = static_cast<double>(suite.size());

  ReportTable table({"Flow", "WL(geomean)", "WNS%", "Effort(s, this run)"});
  table.add_row({"IndEDA", ReportTable::num(geomean(wl_ind)),
                 ReportTable::num(wns_ind / n, 1), ReportTable::num(t_ind, 1)});
  table.add_row({"HiDaP", ReportTable::num(geomean(wl_hid)),
                 ReportTable::num(wns_hid / n, 1), ReportTable::num(t_hid, 1)});
  table.add_row({"handFP", ReportTable::num(geomean(wl_hand)),
                 ReportTable::num(wns_hand / n, 1), ReportTable::num(t_hand, 1)});
  table.print();
  table.write_csv(out_dir() + "/table2.csv");
  print_rule();
  std::printf("Paper:   IndEDA 1.143 / -39.1%% / 10-30 min;  HiDaP 1.013 / -24.6%% / "
              "0.5-2 h;  handFP 1.000 / -17.9%% / 2-4 weeks\n");
  std::printf("Expected shape: IndEDA clearly above handFP in WL and WNS; HiDaP within "
              "a few %% of handFP at a fraction of handFP effort.\n");
  return 0;
}
