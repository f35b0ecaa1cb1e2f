// h3dbench: runs one benchmark workload and writes its raw measurements as
// one JSON record. perfbench/run.py builds this binary, launches it in a
// fresh process per run, and derives every metric from the record.
//
//   h3dbench --workload=NAME --seed=N --seconds=S --trace=0|1
//            --work-dir=DIR --out=FILE

#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "util/cli.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::map<std::string, void (*)(const RunArgs&, JsonWriter&)> workloads =
      {{"capacity_sweep", capacity_sweep},
       {"dse_search", dse_search},
       {"serve_open", serve_open},
       {"chip_in_loop", chip_in_loop}};
  try {
    h3dfact::util::Cli cli(argc, argv);
    RunArgs a;
    a.workload = cli.str("workload", "");
    a.seed = static_cast<std::uint64_t>(cli.i64("seed", 1));
    a.seconds = cli.f64("seconds", 10.0);
    a.trace = cli.i64("trace", 0) != 0;
    a.work_dir = cli.str("work-dir", ".");
    const std::string out = cli.str("out", "");
    const auto it = workloads.find(a.workload);
    if (it == workloads.end() || out.empty()) {
      std::fprintf(stderr,
                   "usage: h3dbench --workload=capacity_sweep|dse_search|"
                   "serve_open|chip_in_loop --seed=N --seconds=S --trace=0|1 "
                   "--work-dir=DIR --out=FILE\n");
      return 64;
    }
    JsonWriter w;
    w.begin_object();
    w.field("workload", a.workload).field("seed", a.seed);
    w.field("seconds", a.seconds).field("trace", a.trace);
    write_env(w);
    it->second(a, w);
    w.end_object();
    std::ofstream os(out);
    os << w.str() << "\n";
    if (!os.flush()) {
      std::fprintf(stderr, "h3dbench: cannot write %s\n", out.c_str());
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "h3dbench: %s\n", e.what());
    return 1;
  }
}
