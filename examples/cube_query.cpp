// cube_query: cached, parallel analysis queries over an experiment
// repository.
//
// Where cube_calc binds expression names to files on its command line, a
// cube_query expression is SELF-CONTAINED: repository selectors name the
// stored experiments it consumes, e.g.
//
//   cube_query 'diff(mean(attr(run=before)), mean(attr(run=after)))'
//       --repo /data/campaign
//
// The engine plans the expression (selector resolution, common-
// subexpression elimination), evaluates independent DAG nodes on a
// thread pool, and caches every computed sub-expression back into the
// repository content-addressed, so repeated and overlapping queries hit
// warm cubes instead of recomputing.  See docs/QUERY.md.
//
// Usage:
//   cube_query <expr> --repo <dir> [options]
//
// Options:
//   --threads N    executor threads (default: hardware concurrency)
//   --no-cache     neither read nor write cached results
//   --no-store     read the cache but do not persist new results
//   --repeat N     run the query N times (cold vs warm demonstration);
//                  exits nonzero if a repeated cacheable query never
//                  hits the cache
//   -o out.cube    write the result as a CUBE XML file
//   --hotspots N   rows in the severity report (default 10)
//   --quiet        stats only, no severity report
//   --verbose      additionally print which bulk severity kernels fired
//                  (identity/remap x dense/sparse, cells vs nnz processed)
//   --trace f.json        write a Chrome trace_event JSON of this run
//   --self-profile f.cube export this run's own profile as a CUBE
//                         experiment (.cubx = binary)
//   --stats               print the span call-tree and metric table
//
// Static plan analysis (docs/QUERY.md, "Static plan analysis"):
//   --check           analyze the plan WITHOUT executing it: prove
//                     operand compatibility, predict result geometry,
//                     traversal cost, and peak resident memory from
//                     metadata and severity-blob headers alone.  The
//                     exit code mirrors the worst finding (0 clean,
//                     1 warnings, 2 errors), and the run asserts that
//                     zero severity bytes were read.
//   --budget-bytes N  with --check: error (cost.over-budget) when the
//                     predicted peak resident memory exceeds N bytes.
//                     Without --check: refuse to execute a plan the
//                     analyzer finds incompatible or over budget.
//   --format json     with --check: machine-readable analysis report
#include <algorithm>
#include <chrono>
#include <iostream>
#include <optional>
#include <string>

#include "algebra/operators.hpp"
#include "algebra/simd.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "io/cube_format.hpp"
#include "io/repository.hpp"
#include "lint/diagnostics.hpp"
#include "obs/json_export.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"
#include "obs_util.hpp"
#include "query/analyze.hpp"
#include "query/engine.hpp"
#include "report_util.hpp"

namespace {

void print_stats(const cube::query::QueryResult& result, std::size_t run,
                 std::size_t runs, bool verbose) {
  const cube::query::QueryStats& s = result.stats;
  std::cout << "run " << run + 1 << "/" << runs << ": " << s.plan_nodes
            << " plan nodes (" << s.cse_reused << " reused by CSE), "
            << s.nodes_executed << " executed, " << s.operands_loaded
            << " operands loaded, " << s.nodes_evaluated << " evaluated, "
            << s.cache_hits << " cache hits, " << s.cache_misses
            << " misses, " << s.bytes_loaded << " bytes read, "
            << s.threads_used << " threads\n"
            << "  wall: plan " << cube::format_value(s.plan_ms, 2)
            << " ms, exec " << cube::format_value(s.exec_ms, 2)
            << " ms (load " << cube::format_value(s.load_ms, 2)
            << " ms, eval " << cube::format_value(s.eval_ms, 2)
            << " ms summed over tasks), total "
            << cube::format_value(s.total_ms, 2) << " ms\n";
  if (verbose) {
    namespace kc = cube::kernel_counters;
    const auto counter = [&](const char* name) {
      return cube::obs::counter_value(result.metrics, name);
    };
    std::cout << "  kernels: " << counter(kc::kApplications)
              << " bulk operator applications, " << counter(kc::kChunks)
              << " cell chunks; identity-dense "
              << counter(kc::kIdentityDenseCells) << " cells, remap-dense "
              << counter(kc::kRemapDenseCells) << " cells, identity-sparse "
              << counter(kc::kIdentitySparseNnz) << " nnz, remap-sparse "
              << counter(kc::kRemapSparseNnz) << " nnz\n"
              << "  batch: " << counter(kc::kBatchTiles) << " SoA tiles, width "
              << counter(kc::kBatchWidth) << " (simd "
              << cube::simd::backend_name(cube::simd::active_backend())
              << ")\n";
  }
}

std::uint64_t sev_bytes_read() {
  return cube::obs::MetricsRegistry::global()
      .counter("io.sev.bytes_read", cube::obs::SampleUnit::Bytes)
      .value();
}

void print_cost(const char* label, const cube::query::CostEstimate& c) {
  std::cout << label << ": " << c.nodes_executed << " nodes ("
            << c.operands_loaded << " loads, " << c.nodes_evaluated
            << " evaluated, " << c.cache_hits << " cache hits), "
            << c.cells_traversed << " cells traversed, " << c.bytes_loaded
            << " bytes loaded, " << c.bytes_faulted << " bytes faulted, "
            << c.intermediate_bytes << " intermediate bytes, peak resident "
            << c.peak_resident_bytes << " bytes\n";
}

void cost_json(std::ostream& out, const cube::query::CostEstimate& c) {
  out << "{\"nodes_executed\": " << c.nodes_executed
      << ", \"operands_loaded\": " << c.operands_loaded
      << ", \"nodes_evaluated\": " << c.nodes_evaluated
      << ", \"cache_hits\": " << c.cache_hits
      << ", \"cells_traversed\": " << c.cells_traversed
      << ", \"bytes_loaded\": " << c.bytes_loaded
      << ", \"bytes_faulted\": " << c.bytes_faulted
      << ", \"intermediate_bytes\": " << c.intermediate_bytes
      << ", \"peak_resident_bytes\": " << c.peak_resident_bytes
      << ", \"exact\": " << (c.exact ? "true" : "false") << "}";
}

}  // namespace

int main(int argc, char** argv) {
  std::string expr;
  std::optional<std::string> repo_dir;
  std::optional<std::string> output;
  cube::query::QueryOptions options;
  std::size_t hotspot_count = 10;
  std::size_t repeat = 1;
  bool quiet = false;
  bool verbose = false;
  bool check = false;
  bool json = false;
  std::uint64_t budget_bytes = 0;
  cube::cli::ObsOptions obs;
  obs.tool = "cube_query";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (obs.parse_arg(argc, argv, i)) {
      // handled
    } else if (arg == "--repo" && i + 1 < argc) {
      repo_dir = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], options.threads)) {
        std::cerr << "error: --threads expects a number\n";
        return 1;
      }
    } else if (arg == "--no-cache") {
      options.use_cache = false;
      options.store_derived = false;
    } else if (arg == "--no-store") {
      options.store_derived = false;
    } else if (arg == "--repeat" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], repeat) || repeat == 0) {
        std::cerr << "error: --repeat expects a positive number\n";
        return 1;
      }
    } else if (arg == "-o" && i + 1 < argc) {
      output = argv[++i];
    } else if (arg == "--hotspots" && i + 1 < argc) {
      if (!cube::parse_size(argv[++i], hotspot_count)) {
        std::cerr << "error: --hotspots expects a number\n";
        return 1;
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--budget-bytes" && i + 1 < argc) {
      std::size_t v = 0;
      if (!cube::parse_size(argv[++i], v)) {
        std::cerr << "error: --budget-bytes expects a number\n";
        return 1;
      }
      budget_bytes = v;
    } else if (arg == "--format" && i + 1 < argc) {
      const std::string fmt = argv[++i];
      if (fmt == "json") {
        json = true;
      } else if (fmt != "text") {
        std::cerr << "error: --format expects 'text' or 'json'\n";
        return 1;
      }
    } else if (expr.empty()) {
      expr = arg;
    } else {
      std::cerr << "error: unexpected argument '" << arg << "'\n";
      return 1;
    }
  }
  if (expr.empty() || !repo_dir) {
    std::cerr << "usage: cube_query <expr> --repo <dir> [--threads N]"
                 " [--no-cache] [--no-store] [--repeat N] [-o out.cube]"
                 " [--hotspots N] [--quiet] [--verbose]"
                 " [--check [--format json]] [--budget-bytes N]"
              << cube::cli::ObsOptions::usage() << "\n";
    return 1;
  }

  if (check) {
    // Analyze-only: plan, then run the static analyzer over metadata and
    // severity-blob headers.  No executor is constructed and no severity
    // byte may be read — asserted via the io.sev.bytes_read counter.
    try {
      cube::ExperimentRepository repo(*repo_dir);
      const cube::query::QueryPlan plan = cube::query::plan_query(
          *cube::query::parse_query(expr), repo, options.operators);

      cube::query::AnalyzeOptions aopts;
      aopts.budget_bytes = budget_bytes;
      aopts.use_cache = options.use_cache;
      aopts.operators = options.operators;

      const std::uint64_t sev_before = sev_bytes_read();
      cube::lint::DiagnosticSink sink;
      const cube::query::PlanAnalysis analysis =
          cube::query::analyze_plan(plan, repo, sink, aopts);
      cube::query::lint_plan(plan, sink);
      const std::uint64_t sev_delta = sev_bytes_read() - sev_before;

      int rc = sink.exit_code();
      if (sev_delta != 0) {
        std::cerr << "error: static analysis read " << sev_delta
                  << " severity bytes (must be 0)\n";
        rc = std::max(rc, 2);
      }
      if (json) {
        std::cout << "{\n  \"query\": ";
        cube::obs::write_json_string(std::cout, expr);
        std::cout << ",\n  \"canonical\": ";
        cube::obs::write_json_string(std::cout,
                                     plan.nodes[plan.root].canonical);
        std::cout << ",\n  \"compatible\": "
                  << (analysis.compatible ? "true" : "false")
                  << ",\n  \"exact\": "
                  << (analysis.exact ? "true" : "false")
                  << ",\n  \"budget_bytes\": " << analysis.budget_bytes
                  << ",\n  \"over_budget\": "
                  << (analysis.over_budget ? "true" : "false")
                  << ",\n  \"severity_bytes_read\": " << sev_delta
                  << ",\n  \"cold\": ";
        cost_json(std::cout, analysis.cold);
        std::cout << ",\n  \"warm\": ";
        cost_json(std::cout, analysis.warm);
        std::cout << ",\n  \"diagnostics\": ";
        sink.write_json(std::cout);
        std::cout << "}\n";
      } else {
        std::cout << "check:     " << expr << "\n"
                  << "canonical: " << plan.nodes[plan.root].canonical
                  << "\n";
        print_cost("cold", analysis.cold);
        print_cost("warm", analysis.warm);
        sink.write_text(std::cout);
      }
      return rc;
    } catch (const cube::Error& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    }
  }

  obs.begin();
  try {
    cube::ExperimentRepository repo(*repo_dir);
    cube::query::QueryEngine engine(repo, options);

    // One plan serves the admission gate, the plan-shape advisories and
    // the first run; later --repeat runs plan again, so a warm run times
    // its own planning.
    std::optional<cube::query::QueryResult> last;
    {
      cube::obs::Span run_span("query.run");
      const auto t_plan = std::chrono::steady_clock::now();
      cube::obs::Span plan_span("query.plan");
      const cube::query::QueryPlan plan =
          engine.plan(*cube::query::parse_query(expr));
      plan_span.finish();
      const double plan_ms = std::chrono::duration<double, std::milli>(
                                 std::chrono::steady_clock::now() - t_plan)
                                 .count();

      // Admission gate: with a budget set, the plan must pass the static
      // analyzer before any severity is loaded (the same gate cubed runs
      // before admitting a query).
      if (budget_bytes != 0) {
        cube::query::AnalyzeOptions aopts;
        aopts.budget_bytes = budget_bytes;
        aopts.use_cache = options.use_cache;
        aopts.operators = options.operators;
        cube::lint::DiagnosticSink sink;
        (void)cube::query::analyze_plan(plan, repo, sink, aopts);
        if (sink.reached(cube::lint::Level::Error)) {
          std::cerr << "error: static plan analysis refused the query\n";
          sink.write_text(std::cerr);
          return 2;
        }
      }

      // Plan-shape advisories (perf.series-foldable & co.) go to stderr;
      // they never affect the exit code or the result.
      cube::lint::DiagnosticSink advisories;
      cube::query::lint_plan(plan, advisories);
      if (!advisories.empty()) advisories.write_text(std::cerr);

      last = engine.run_plan(plan);
      last->stats.plan_ms = plan_ms;
      last->stats.total_ms += plan_ms;
    }
    print_stats(*last, 0, repeat, verbose);
    for (std::size_t run = 1; run < repeat; ++run) {
      last = engine.run(expr);
      print_stats(*last, run, repeat, verbose);
    }

    std::cout << "query:     " << expr << "\n"
              << "canonical: " << last->canonical << "\n"
              << "result:    " << last->experiment.name() << "\n";
    if (output) {
      cube::write_cube_xml_file(last->experiment, *output);
      std::cout << "wrote " << *output << "\n";
    } else if (!quiet) {
      cube::cli::print_experiment_report(last->experiment, hotspot_count);
    }
    if (!obs.finish()) return 1;

    // With caching on, a repeated query whose plan contains operator
    // applications must be served warm the second time round.
    if (repeat > 1 && options.use_cache && options.store_derived &&
        last->stats.nodes_evaluated + last->stats.cache_hits > 0 &&
        last->stats.cache_hits == 0) {
      std::cerr << "error: repeated query never hit the cache\n";
      return 1;
    }
    return 0;
  } catch (const cube::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
