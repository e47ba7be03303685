// smr_figures — print the tables of the paper's figures and ablations.
//
//   smr_figures                  # every figure, in the order of kFigures
//   smr_figures --figure=fig3    # one figure
//
// A figure's cells run concurrently on the default pool (SMR_THREADS sets
// its size); its tables are filled afterwards in a fixed order, so the
// output is byte-identical at any pool size.  EXPERIMENTS.md quotes these
// tables, and tests/integration/golden/figures_all.txt pins all of them.
#include <cstdio>
#include <string>

#include "figures.hpp"
#include "smr/common/flags.hpp"

namespace {

struct Figure {
  const char* name;
  void (*print)();
};

constexpr Figure kFigures[] = {
    {"fig1", smr::bench::fig1},
    {"fig3", smr::bench::fig3},
    {"fig4", smr::bench::fig4},
    {"fig5", smr::bench::fig5},
    {"fig6", smr::bench::fig6},
    {"fig7", smr::bench::fig7},
    {"fig8", smr::bench::fig8},
    {"fig9", smr::bench::fig9},
    {"lazy_slots", smr::bench::lazy_slots},
    {"balance_bounds", smr::bench::balance_bounds},
    {"heterogeneous", smr::bench::heterogeneous},
    {"schedulers", smr::bench::schedulers},
    {"speculation", smr::bench::speculation},
    {"locality", smr::bench::locality},
    {"slowstart", smr::bench::slowstart},
    {"calibration", smr::bench::calibration},
    {"serve_capacity", smr::bench::serve_capacity},
};

}  // namespace

int main(int argc, char** argv) {
  std::string names;
  for (const Figure& figure : kFigures) names += std::string(figure.name) + " ";
  names += "all";

  smr::FlagSet flags("Print the tables of the paper's figures and ablations.");
  flags.define_string("figure", "all", "one of: " + names);
  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "smr_figures: %s\n\n%s", flags.error().c_str(),
                 flags.usage("smr_figures").c_str());
    return 1;
  }
  if (!flags.positional().empty()) {
    std::fprintf(stderr, "smr_figures: unexpected argument '%s'\n",
                 flags.positional().front().c_str());
    return 1;
  }

  const std::string wanted = flags.get_string("figure");
  bool found = false;
  for (const Figure& figure : kFigures) {
    if (wanted == "all" || wanted == figure.name) {
      figure.print();
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "smr_figures: unknown figure '%s'; valid figures: %s\n",
                 wanted.c_str(), names.c_str());
    return 1;
  }
  return 0;
}
