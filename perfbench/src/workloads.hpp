#pragma once
// The four benchmark workloads. Each writes its raw measurements into the
// record; perfbench/run.py turns them into metrics and checks.

#include "common.hpp"
#include "json.hpp"

namespace perfbench {

void capacity_sweep(const RunArgs& a, JsonWriter& w);
void dse_search(const RunArgs& a, JsonWriter& w);
void serve_open(const RunArgs& a, JsonWriter& w);
void chip_in_loop(const RunArgs& a, JsonWriter& w);

}  // namespace perfbench
