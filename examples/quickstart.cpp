// Quickstart: build two small experiments through the CUBE construction
// API, store one as a CUBE XML file, read it back, subtract the two, and
// browse the derived difference experiment exactly like an original one.
//
// Run:  ./quickstart [output-dir]
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <string>
#include <system_error>

#include "algebra/operators.hpp"
#include "common/error.hpp"
#include "display/browser.hpp"
#include "io/cube_api.hpp"

namespace {

// Builds a toy profile: main -> {solve -> MPI_Send, io}; two ranks.
// `solve_seconds` lets us fake a "before" and an "after" version.
cube::Experiment build_run(const std::string& name, double solve_seconds) {
  cube::Cube api;
  const auto time = api.def_metric("time", "Time", "sec", "wall time");
  const auto comm =
      api.def_metric("comm", "Communication", "sec", "MPI time", time);
  const auto visits = api.def_metric("visits", "Visits", "occ", "calls");

  const auto r_main = api.def_region("main", "demo.c", 1, 80);
  const auto r_solve = api.def_region("solve", "demo.c", 10, 50);
  const auto r_send = api.def_region("MPI_Send", "mpi");
  const auto r_io = api.def_region("io", "demo.c", 60, 70);

  const auto c_main = api.def_cnode(api.def_callsite("demo.c", 1, r_main));
  const auto c_solve =
      api.def_cnode(api.def_callsite("demo.c", 12, r_solve), c_main);
  const auto c_send =
      api.def_cnode(api.def_callsite("demo.c", 30, r_send), c_solve);
  const auto c_io =
      api.def_cnode(api.def_callsite("demo.c", 62, r_io), c_main);

  const auto machine = api.def_machine("demo cluster");
  const auto node = api.def_node("node0", machine);
  for (long rank = 0; rank < 2; ++rank) {
    const auto process =
        api.def_process("rank " + std::to_string(rank), rank, node);
    const auto thread = api.def_thread("thread 0", 0, process);
    api.set_severity(time, c_main, thread, 0.4);
    api.set_severity(time, c_solve, thread,
                     solve_seconds * (rank == 0 ? 1.0 : 1.2));
    api.set_severity(comm, c_send, thread, 0.8);
    api.set_severity(time, c_io, thread, 0.3);
    api.set_severity(visits, c_solve, thread, 100.0);
  }
  return api.take(name);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const std::filesystem::path dir = argc > 1 ? argv[1] : ".";
    // A missing output directory is created; should that fail, writing the
    // file below reports why.
    std::error_code ignored;
    std::filesystem::create_directories(dir, ignored);

    // 1. Create an experiment and store it in the CUBE XML format.
    const cube::Experiment before = build_run("before", 5.0);
    const std::string path = (dir / "before.cube").string();
    cube::Cube::write_file(before, path);
    std::cout << "wrote " << path << "\n";

    // 2. Read it back — files round-trip losslessly.
    const cube::Experiment loaded = cube::Cube::read_file(path);

    // 3. A second experiment: the "optimized" code version.
    const cube::Experiment after = build_run("after", 3.5);

    // 4. Apply the algebra: the difference is itself a full experiment.
    const cube::Experiment diff = cube::difference(loaded, after);
    std::cout << "derived experiment: " << diff.name()
              << " (provenance: " << diff.provenance() << ")\n\n";

    // 5. Browse the derived experiment like an original one.
    cube::Browser browser(diff);
    browser.execute("select metric time");
    browser.execute("select call solve");
    std::cout << browser.execute("show") << "\n";

    // 6. Values can also be normalized against the old version ("improvement
    //    in percent of the previous execution time", paper Figure 2).
    const cube::Metric& time = *loaded.metadata().find_metric("time");
    browser.execute("mode external " +
                    std::to_string(loaded.sum_metric_tree(time)));
    std::cout << browser.execute("show") << "\n";
    return 0;
  } catch (const cube::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
