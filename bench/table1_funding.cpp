// Exhibit T1: "FEDERAL HPCC PROGRAM FUNDING FY 92-93 (Dollars in
// millions)" — the paper's funding table, regenerated from the program
// model with derived growth and share columns, plus the component split
// and the responsibilities matrix from the adjacent slides.
#include <cstdio>

#include "harness.hpp"
#include "hpcc/program.hpp"

using namespace hpccsim;

int exhibit(const ArgParser& args, bench::Harness& h) {
  auto emit = [&](const Table& t) {
    if (!args.flag("csv") && args.flag("markdown"))
      std::printf("%s\n", t.markdown().c_str());
    else
      h.print(t);
  };

  std::printf("== T1: FEDERAL HPCC PROGRAM FUNDING FY 92-93 "
              "(dollars in millions) ==\n");
  emit(hpcc::funding_table());

  std::printf("== Program components (FY92 split) ==\n");
  emit(hpcc::component_table());

  std::printf("== Agency x component responsibilities ==\n");
  emit(hpcc::responsibilities_table());

  std::printf("== Estimated agency x component budgets, FY92 ($M) ==\n");
  emit(hpcc::budget_matrix_table());

  std::printf("paper check: FY92 total $%.1fM (paper: 654.8), "
              "FY93 total $%.1fM (paper: 802.9)\n",
              hpcc::total_fy1992(), hpcc::total_fy1993());

  obs::BenchMetrics& bm = h.metrics;
  bm.metric("fy92_total_musd", hpcc::total_fy1992());
  bm.metric("fy93_total_musd", hpcc::total_fy1993());
  return 0;
}

int main(int argc, char** argv) {
  bench::Harness h("table1_funding",
                   "Reproduces the paper's FY92-93 HPCC funding table");
  h.args.add_flag("markdown", "emit Markdown tables");
  return h.run(argc, argv, exhibit);
}
