// Reproduces paper Table III: per-circuit WL (m, normalized), congestion
// GRC% and timing (WNS%, TNS) for IndEDA / HiDaP / handFP on c1..c8.
// Every column comes from the evaluation placer; flow effort (placement
// time only, see bench_table2) is not part of this table.

#include <cstdio>

#include "bench_common.hpp"
#include "eval/report.hpp"

using namespace hidap;
using namespace hidap::benchutil;

namespace {
void print_row(const char* circuit, const Metrics& m, ReportTable& csv) {
  std::printf("%-4s %-7s %8.2f %8.3f %8.2f %8.1f %9.0f\n", circuit, m.flow.c_str(),
              m.wl_m, m.wl_norm, m.grc_percent, m.wns_percent, m.tns_ns);
  csv.add_row({circuit, m.flow, ReportTable::num(m.wl_m, 2),
               ReportTable::num(m.wl_norm), ReportTable::num(m.grc_percent, 2),
               ReportTable::num(m.wns_percent, 1), ReportTable::num(m.tns_ns, 0)});
}
}  // namespace

int main() {
  set_log_level(LogLevel::Warn);
  const double scale = env_scale(0.1);
  const auto suite = selected_suite(scale);

  std::printf("Reproducing Table III (suite scale %.3f of paper cell counts, %d threads)\n",
              scale, ThreadPool::default_thread_count());
  std::printf("%-4s %-7s %8s %8s %8s %8s %9s\n", "ckt", "flow", "WL(m)", "norm",
              "GRC%", "WNS%", "TNS(ns)");
  print_rule();
  int hidap_beats_indeda = 0;
  int hidap_beats_handfp = 0;
  ReportTable csv({"circuit", "flow", "wl_m", "wl_norm", "grc_pct", "wns_pct", "tns_ns"});
  const std::vector<FlowComparison> results = run_suite_flows(suite, "table3");
  for (std::size_t i = 0; i < suite.size(); ++i) {
    const FlowComparison& cmp = results[i];
    print_row(suite[i].spec.name.c_str(), cmp.indeda, csv);
    print_row(suite[i].spec.name.c_str(), cmp.hidap, csv);
    print_row(suite[i].spec.name.c_str(), cmp.handfp, csv);
    print_rule();
    hidap_beats_indeda += cmp.hidap.wl_m < cmp.indeda.wl_m;
    hidap_beats_handfp += cmp.hidap.wl_m < cmp.handfp.wl_m;
  }
  csv.write_csv(out_dir() + "/table3.csv");
  std::printf("HiDaP beats IndEDA on %d/%zu circuits (paper: 7/8)\n", hidap_beats_indeda,
              suite.size());
  std::printf("HiDaP beats handFP on %d/%zu circuits (paper: 2/8 -- c3, c8)\n",
              hidap_beats_handfp, suite.size());
  std::printf("Paper per-circuit norms: IndEDA 0.99-1.29, HiDaP 0.92-1.06, handFP 1.0\n");
  return 0;
}
