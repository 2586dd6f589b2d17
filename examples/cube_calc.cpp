// cube_calc: batch algebra over CUBE files (the command-line counterpart
// of the tools the original CUBE distribution shipped as cube_diff,
// cube_merge, cube_mean).
//
// Usage:
//   cube_calc <expr> [name=]file.cube ... [-o out.cube] [--hotspots N]
//
// Examples:
//   cube_calc 'diff(a, b)' a=before.cube b=after.cube -o delta.cube
//   cube_calc 'mean(exp1, exp2, exp3)' r1.cube r2.cube r3.cube
//   cube_calc 'diff(mean(a1, a2), mean(b1, b2))' a1=... a2=... b1=... b2=...
//
// Unnamed files are bound to exp1, exp2, ... in order.  Without -o the
// derived experiment's metric totals and top hotspots are printed.
//
// cube_calc shares the query grammar with cube_query; expressions using
// repository selectors (id/attr/series) are rejected here with a pointer
// to cube_query --repo, which can resolve them.
#include <iostream>
#include <optional>
#include <string>

#include "binding_util.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "io/cube_format.hpp"
#include "obs_util.hpp"
#include "query/query_expr.hpp"
#include "report_util.hpp"

int main(int argc, char** argv) {
  if (argc < 3) {
    std::cerr << "usage: cube_calc <expr> [name=]file.cube ... [-o out.cube]"
                 " [--hotspots N]"
              << cube::cli::ObsOptions::usage() << "\n";
    return 1;
  }

  const std::string expr = argv[1];
  cube::cli::FileBindings bindings;
  std::optional<std::string> output;
  std::size_t hotspot_count = 10;
  cube::cli::ObsOptions obs;
  obs.tool = "cube_calc";

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs.parse_arg(argc, argv, i)) {
      // handled
    } else if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--hotspots" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], hotspot_count)) {
        std::cerr << "error: --hotspots expects a number\n";
        return 1;
      }
    } else {
      bindings.add(arg);
    }
  }

  obs.begin();
  try {
    const cube::query::ExperimentEnv env = bindings.load();
    const cube::Experiment result =
        cube::query::eval_query_with_env(expr, env);
    std::cout << "evaluated: " << expr << "\n"
              << "result:    " << result.name() << "\n";

    if (output) {
      cube::write_cube_xml_file(result, *output);
      std::cout << "wrote " << *output << "\n";
      return obs.finish() ? 0 : 1;
    }

    cube::cli::print_experiment_report(result, hotspot_count);
    return obs.finish() ? 0 : 1;
  } catch (const cube::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
