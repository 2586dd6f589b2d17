#include "query/engine.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <mutex>
#include <vector>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "io/binary_format.hpp"
#include "io/cube_format.hpp"
#include "lint/lint.hpp"
#include "lint/repo_lint.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube::query {

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// A repository file a load reads: an operand, or the cube a cache hit
/// is served from.
struct StoredFile {
  std::filesystem::path path;
  RepoFormat format = RepoFormat::Binary;
  std::uint64_t digest = 0;  ///< recorded in the index
  std::uint64_t bytes = 0;   ///< recorded in the index
};

// Loads go through the repository so blob-backed files resolve against its
// meta/ directory and interner — a series of operands over one metadata
// digest shares a single in-memory instance even when loaded from
// different pool workers.  Validation also re-hashes the file against its
// recorded digest, catching edits made behind the repository's back.
Experiment read_stored(const ExperimentRepository& repo,
                       const StoredFile& file, bool validate) {
  if (validate) lint::require_digest(file.path, file.digest);
  Experiment experiment = repo.load_path(file.path, file.format);
  if (validate) lint::require_valid(experiment, file.path.string());
  return experiment;
}

/// Runs `fn` on a worker of `pool` (inline without one), waits for it
/// and rethrows what it threw.
void run_on(ThreadPool* pool, const std::function<void()>& fn) {
  if (pool == nullptr) return fn();
  std::promise<void> done;
  pool->submit([&] {
    try {
      fn();
      done.set_value();
    } catch (...) {
      done.set_exception(std::current_exception());
    }
  });
  done.get_future().get();
}

/// How the executor handles one plan node.
enum class Action { LoadOperand, LoadCached, Compute };

}  // namespace

QueryEngine::QueryEngine(ExperimentRepository& repo, QueryOptions options)
    : repo_(repo), options_(options) {
  if (options_.threads == 0) {
    options_.threads = ThreadPool::default_threads();
  }
  if (options_.threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.threads);
    pool_ = owned_pool_.get();
  }
}

QueryEngine::QueryEngine(ExperimentRepository& repo, QueryOptions options,
                         ThreadPool& pool)
    : repo_(repo), options_(options), pool_(&pool) {
  options_.threads = pool.size();
}

QueryResult QueryEngine::run(std::string_view text) {
  return run(*parse_query(text));
}

QueryPlan QueryEngine::plan(const QueryExpr& expr) const {
  return plan_query(expr, repo_, options_.operators);
}

QueryResult QueryEngine::run(const QueryExpr& expr) {
  OBS_SPAN("query.run");
  const auto t_total = Clock::now();
  const auto t_plan = Clock::now();
  obs::Span plan_span("query.plan");
  const QueryPlan query_plan = plan(expr);
  const double plan_ms = ms_since(t_plan);
  plan_span.finish();
  QueryResult result = run_plan(query_plan);
  result.stats.plan_ms = plan_ms;
  result.stats.total_ms = ms_since(t_total);
  return result;
}

QueryResult QueryEngine::run_plan(const QueryPlan& plan) {
  const auto t_total = Clock::now();
  QueryStats stats;
  stats.threads_used = options_.threads;
  stats.plan_nodes = plan.nodes.size();
  stats.cse_reused = plan.cse_reused;

  // Decide per-node actions top-down: a cached apply node (one whose key
  // the index's cache-key lookup finds) becomes a leaf and its operands
  // are never touched (that is where warm queries win).
  const std::size_t n = plan.nodes.size();
  std::vector<Action> action(n, Action::LoadOperand);
  std::vector<StoredFile> cached(n);
  std::vector<char> needed(n, 0);
  std::vector<std::size_t> stack{plan.root};
  while (!stack.empty()) {
    const std::size_t i = stack.back();
    stack.pop_back();
    if (needed[i]) continue;
    needed[i] = 1;
    const PlanNode& node = plan.nodes[i];
    if (node.kind == PlanNode::Kind::Load) {
      action[i] = Action::LoadOperand;
      continue;
    }
    if (options_.use_cache) {
      const std::vector<RepoEntry> hits = repo_.cached(digest_hex(node.key));
      if (!hits.empty()) {
        const RepoEntry& hit = hits.front();
        action[i] = Action::LoadCached;
        cached[i] = StoredFile{repo_.directory() / hit.file, hit.format,
                               hit.digest.value_or(0), hit.bytes};
        continue;
      }
    }
    action[i] = Action::Compute;
    for (const std::size_t child : node.args) stack.push_back(child);
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (needed[i]) ++stats.nodes_executed;
  }

  // Transitive leaf operand digests per node, stamped onto stored derived
  // cubes (kCacheOperandsAttribute) so digest-keyed caches — the daemon's
  // shared result cache — can be linted for staleness.  Computed from the
  // full plan: cache pruning hides subtrees from execution, not from the
  // result's provenance.
  std::vector<std::vector<std::uint64_t>> leaves;
  if (options_.store_derived) {
    leaves.resize(n);
    for (std::size_t i = 0; i < n; ++i) {  // topological: children first
      const PlanNode& node = plan.nodes[i];
      if (node.kind == PlanNode::Kind::Load) {
        leaves[i].push_back(node.operand.digest);
        continue;
      }
      for (const std::size_t child : node.args) {
        leaves[i].insert(leaves[i].end(), leaves[child].begin(),
                         leaves[child].end());
      }
      std::sort(leaves[i].begin(), leaves[i].end());
      leaves[i].erase(std::unique(leaves[i].begin(), leaves[i].end()),
                      leaves[i].end());
    }
  }
  const auto operands_attr = [&](std::size_t i) {
    std::string out;
    for (const std::uint64_t digest : leaves[i]) {
      if (!out.empty()) out += ' ';
      out += digest_hex(digest);
    }
    return out;
  };

  // --- execute ------------------------------------------------------------
  const auto t_exec = Clock::now();
  OperatorOptions op_options = options_.operators;
  // Kernel counters land in a per-run registry, so concurrent engines (and
  // runs) read isolated values; absorbed into the global registry at the
  // end for the process-wide self-profile.
  obs::MetricsRegistry run_metrics;
  op_options.metrics = &run_metrics;
  if (pool_) {
    ThreadPool* pool = pool_;
    op_options.parallel_for =
        [pool](std::size_t chunks,
               const std::function<void(std::size_t)>& body) {
          pool->parallel_for(chunks, body);
        };
  }

  std::vector<std::shared_ptr<Experiment>> results(n);
  std::mutex mutex;

  const auto eval_node = [&](std::size_t i) {
    const PlanNode& node = plan.nodes[i];
    switch (action[i]) {
      case Action::LoadOperand: {
        OBS_SPAN("query.load");
        const auto t0 = Clock::now();
        const StoredFile file{repo_.directory() / node.operand.file,
                              node.operand.format, node.operand.digest,
                              node.operand.bytes};
        auto e = std::make_shared<Experiment>(
            read_stored(repo_, file, options_.validate_loads));
        std::lock_guard<std::mutex> lock(mutex);
        results[i] = std::move(e);
        ++stats.operands_loaded;
        stats.bytes_loaded += node.operand.bytes;
        stats.load_ms += ms_since(t0);
        break;
      }
      case Action::LoadCached: {
        OBS_SPAN("query.load", "cache-hit");
        const auto t0 = Clock::now();
        auto e = std::make_shared<Experiment>(
            read_stored(repo_, cached[i], options_.validate_loads));
        std::lock_guard<std::mutex> lock(mutex);
        results[i] = std::move(e);
        ++stats.cache_hits;
        stats.bytes_loaded += cached[i].bytes;
        stats.load_ms += ms_since(t0);
        break;
      }
      case Action::Compute: {
        OBS_SPAN("query.compute", options_.use_cache ? "cache-miss" : nullptr);
        const auto t0 = Clock::now();
        std::vector<const Experiment*> operands;
        operands.reserve(node.args.size());
        for (const std::size_t child : node.args) {
          operands.push_back(results[child].get());
        }
        Experiment out = apply_query_op(node.op, operands, op_options);
        if (options_.store_derived) {
          // The result self-describes its cache identity; the attributes
          // travel into the repository index, where the next plan's
          // cache-key lookup finds them.
          out.set_attribute(kCacheKeyAttribute, digest_hex(node.key));
          out.set_attribute(kCacheExprAttribute, node.canonical);
          out.set_attribute(kCacheOperandsAttribute, operands_attr(i));
        }
        auto e = std::make_shared<Experiment>(std::move(out));
        const double eval_ms = ms_since(t0);
        // Stored outside `mutex` (the repository synchronizes itself);
        // the root is stored by the caller once the DAG is done.
        if (options_.store_derived && i != plan.root) {
          repo_.store(*e, RepoFormat::Binary);
        }
        std::lock_guard<std::mutex> lock(mutex);
        results[i] = std::move(e);
        ++stats.nodes_evaluated;
        if (options_.use_cache) ++stats.cache_misses;
        stats.eval_ms += eval_ms;
        break;
      }
    }
  };

  if (!pool_) {
    // Sequential: plan order is topological (children precede parents).
    for (std::size_t i = 0; i < n; ++i) {
      if (needed[i]) eval_node(i);
    }
  } else {
    // Dependency-counting DAG walk: a node is submitted once every needed
    // child finished; the caller waits for the last needed node (or, on
    // failure, for in-flight tasks to drain).
    std::vector<std::vector<std::size_t>> parents(n);
    std::vector<std::size_t> pending(n, 0);
    std::size_t total_needed = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!needed[i]) continue;
      ++total_needed;
      if (action[i] == Action::Compute) {
        for (const std::size_t child : plan.nodes[i].args) {
          parents[child].push_back(i);
        }
        pending[i] = plan.nodes[i].args.size();
      }
    }

    std::condition_variable done_cv;
    std::size_t outstanding = 0;
    std::size_t finished = 0;
    std::exception_ptr error;
    bool abort = false;

    std::function<void(std::size_t)> launch = [&](std::size_t i) {
      pool_->submit([&, i] {
        bool ok = true;
        try {
          {
            std::lock_guard<std::mutex> lock(mutex);
            ok = !abort;
          }
          if (ok) eval_node(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(mutex);
          if (!error) error = std::current_exception();
          abort = true;
          ok = false;
        }
        std::vector<std::size_t> ready;
        {
          std::lock_guard<std::mutex> lock(mutex);
          --outstanding;
          ++finished;
          if (ok && !abort) {
            for (const std::size_t p : parents[i]) {
              if (--pending[p] == 0) ready.push_back(p);
            }
          }
          outstanding += ready.size();
          if (outstanding == 0) done_cv.notify_all();
        }
        for (const std::size_t p : ready) launch(p);
      });
    };

    std::vector<std::size_t> roots_ready;
    {
      std::lock_guard<std::mutex> lock(mutex);
      for (std::size_t i = 0; i < n; ++i) {
        if (needed[i] &&
            (action[i] != Action::Compute || pending[i] == 0)) {
          roots_ready.push_back(i);
        }
      }
      outstanding += roots_ready.size();
    }
    for (const std::size_t i : roots_ready) launch(i);
    {
      std::unique_lock<std::mutex> lock(mutex);
      done_cv.wait(lock, [&] {
        return outstanding == 0 && (finished == total_needed || abort);
      });
      if (error) std::rethrow_exception(error);
    }
  }

  // The root's bytes outlive the run as the daemon's reply body: encode
  // them on this thread and record them from a pool worker.  Bodies in a
  // worker's malloc arena, or index records in this thread's, fragment
  // the arena the result cache churns (EXPERIMENTS.md A18: +15-25 MB RSS).
  std::shared_ptr<const std::string> root_bytes;
  if (options_.store_derived && action[plan.root] == Action::Compute) {
    const Experiment& root = *results[plan.root];
    root_bytes = std::make_shared<const std::string>(to_cube_binary_ref(root));
    run_on(pool_, [&] { repo_.store(root, RepoFormat::Binary, root_bytes); });
  }
  stats.exec_ms = ms_since(t_exec);
  stats.total_ms = ms_since(t_total);
  // Feed the process-wide registry: the run's kernel counters plus the
  // engine's own tallies, under stable query.* names.
  run_metrics.counter("query.runs").add(1);
  run_metrics.counter("query.cache.hits").add(stats.cache_hits);
  run_metrics.counter("query.cache.misses").add(stats.cache_misses);
  run_metrics.counter("query.operands_loaded").add(stats.operands_loaded);
  run_metrics.counter("query.nodes_evaluated").add(stats.nodes_evaluated);
  run_metrics.counter("query.bytes_loaded", obs::SampleUnit::Bytes)
      .add(stats.bytes_loaded);
  obs::MetricsRegistry::global().absorb(run_metrics);

  std::shared_ptr<Experiment> root = std::move(results[plan.root]);
  results.clear();
  QueryResult result{root.use_count() == 1 ? std::move(*root)
                                           : root->clone(),
                     stats, plan.nodes[plan.root].canonical,
                     run_metrics.snapshot(), std::move(root_bytes)};
  return result;
}

}  // namespace cube::query
