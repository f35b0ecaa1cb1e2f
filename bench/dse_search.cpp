// Closed-loop design-space exploration: accuracy trials × analytic PPA ×
// thermal solve, searched with successive halving (src/dse, docs/dse.md).
//
// The search grid is the registered "dse" design space (src/dse/space.cpp):
// design kind × array rows × subarrays × ADC precision, each cell scored on
// four standing objectives — accuracy (max), energy/op (min), area (min),
// peak temperature (min). --rungs=1 is the exhaustive sweep; --rungs=K
// --eta=E runs successive halving (rung budgets scale by E^-(K-1-k), the
// top 1/E of each rung promotes by non-dominated layer, then scalarization,
// then cell index). Budgets are trial-stream PREFIXES, so the final rung's
// statistics — and therefore the emitted frontier — are bit-identical to
// the exhaustive sweep whenever the exhaustive frontier survives promotion
// (the CI dse-smoke job byte-diffs exactly this).
//
// Grid axes / knobs (forwarded to the registered builder):
//   --designs=sram2d,hybrid2d,h3d  design-kind axis (default hybrid2d,h3d)
//   --rows=A,B --subarrays=A,B     macro geometry axes (dim = rows*subarrays)
//   --adc=A,B                      ADC precision axis (default 4,8)
//   --f= --m= --trials= --cap= --seed= --sigma= --theta= --clip= --thermal=
// Search:
//   --grid=NAME       registered design-space grid (default "dse")
//   --rungs=K --eta=E successive-halving schedule (default 2, 2.0)
//   --frontier=PATH   write the frontier JSON artifact (byte-stable)
// Execution (the standard sweep transport flags; see docs/sweeps.md):
//   --shards=N --cell-threads=N --listen=[host:]port --workers=N|h:p,...
//   --worker-cmd="CMD" --block-deadline-ms=N
//   --checkpoint=BASE  rung k checkpoints to BASE.rung<k> (resumable)

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "dse/frontier.hpp"
#include "dse/halving.hpp"
#include "dse/space.hpp"
#include "grids/grids.hpp"

using namespace h3dfact;

int main(int argc, char** argv) try {
  util::Cli cli(argc, argv);
  bench::grids::register_all();
  dse::register_design_spaces();

  const std::string grid = cli.str("grid", dse::kDesignGrid);
  const sweep::GridRef ref = bench::grid_ref_from_cli(
      grid.c_str(), cli,
      {"designs", "rows", "subarrays", "adc", "f", "m", "trials", "cap",
       "seed", "sigma", "theta", "clip", "thermal"});

  dse::SearchOptions options;
  options.rungs = static_cast<std::size_t>(cli.i64("rungs", 2));
  options.eta = cli.f64("eta", 2.0);
  options.checkpoint_base = cli.str("checkpoint", "");
  // The scheduler owns cells/grid/checkpoint per rung; only the execution
  // knobs come from the CLI.
  options.sweep =
      bench::sweep_options_from_cli(cli, "dse", nullptr, {},
                                    bench::transport_from_cli(cli));
  if (cli.has("filter")) {
    std::fprintf(stderr,
                 "dse_search: --filter is not supported; the halving "
                 "scheduler selects cells per rung\n");
    return 2;
  }
  if (cli.has("csv") || cli.has("json")) {
    // DesignPoint does not keep the raw TrialStats the sweep emitters need;
    // the byte-stable artifact here is the frontier JSON.
    std::fprintf(stderr,
                 "dse_search: --csv/--json are not supported; use "
                 "--frontier=PATH for the byte-stable artifact\n");
    return 2;
  }

  const dse::SearchResult result = dse::run_search(ref, options);

  // --- report --------------------------------------------------------------
  const sweep::SweepSpec spec = sweep::build_grid(ref);
  util::Table audit("DSE search -- successive-halving audit (grid '" + grid +
                    "', " + std::to_string(spec.cell_count()) + " cells)");
  audit.set_header({"rung", "trials/cell", "entrants", "promoted"});
  for (const dse::RungReport& r : result.rungs) {
    audit.add_row(
        {util::Table::fmt_int(static_cast<long long>(r.rung)),
         util::Table::fmt_int(static_cast<long long>(r.budget_trials)),
         util::Table::fmt_int(static_cast<long long>(r.entrants.size())),
         r.promoted.empty()
             ? std::string("final")
             : util::Table::fmt_int(
                   static_cast<long long>(r.promoted.size()))});
  }
  audit.add_note("Cell executions across rungs: " +
                 std::to_string(result.cell_runs) + " (exhaustive = " +
                 std::to_string(spec.cell_count()) + ").");
  audit.print(std::cout);

  util::Table t("DSE Pareto frontier -- accuracy x energy x area x heat");
  t.set_header({"cell", "design", "rows", "sub", "adc", "acc %", "fJ/op",
                "area mm2", "peak C"});
  for (const dse::DesignPoint& p : result.frontier) {
    t.add_row({util::Table::fmt_int(static_cast<long long>(p.index)),
               [&] {
                 for (const auto& [axis, label] : p.coordinates) {
                   if (axis == "design") return label;
                 }
                 return std::string("-");
               }(),
               util::Table::fmt(p.params.at(dse::kParamRows), 0),
               util::Table::fmt(p.params.at(dse::kParamSubarrays), 0),
               util::Table::fmt(p.params.at(dse::kParamAdcBits), 0),
               util::Table::fmt(100.0 * p.accuracy, 1),
               util::Table::fmt(p.hw.energy_per_op_fJ, 1),
               util::Table::fmt(p.hw.area_mm2, 3),
               util::Table::fmt(p.hw.peak_C, 1)});
  }
  t.add_note("Frontier = non-dominated subset of the final rung's survivors "
             "at the full trial budget (" +
             std::to_string(result.frontier.size()) + " of " +
             std::to_string(result.points.size()) + " survivors).");
  t.add_note("Objectives: accuracy (max), energy/op (min), total area "
             "(min), peak stack temperature (min).");
  t.print(std::cout);

  if (const std::string path = cli.str("frontier", ""); !path.empty()) {
    std::ofstream os(path);
    if (!os) {
      std::fprintf(stderr, "dse_search: cannot write %s\n", path.c_str());
      return 1;
    }
    dse::write_frontier_json(os, grid, ref, result.frontier);
    std::fprintf(stderr, "[dse] wrote %s\n", path.c_str());
  }
  return 0;
} catch (const std::exception& e) {
  // Malformed grid params (e.g. --sigma=nan) land here, named in e.what().
  std::fprintf(stderr, "[dse] %s\n", e.what());
  return 1;
}
