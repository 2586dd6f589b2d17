// Per-layer metrics of the traced run, and their export as a CUBE
// experiment.  The client and wire times come from the benchmark's own
// calls; plan, analysis, run_plan and serialization times from the spans
// the daemon already records; the steps inside those from the benchmark's
// own calls into each module's public functions (a replay on a separate
// repository handle); counts and ratios from deltas of the global metrics
// registry.  README.md maps every metric to the end-to-end metric it
// should move.
#include <algorithm>
#include <map>
#include <optional>
#include <stdexcept>

#include "algebra/integration.hpp"
#include "algebra/operators.hpp"
#include "common/digest.hpp"
#include "perfbench.hpp"
#include "query/engine.hpp"
#include "query/planner.hpp"

namespace perfbench {

namespace {

using cube::Experiment;

Experiment apply_op(const cube::query::PlanNode& node,
                    const std::vector<const Experiment*>& args) {
  using Op = cube::query::QueryExpr::Op;
  switch (node.op) {
    case Op::Diff:
      return cube::difference(*args.at(0), *args.at(1));
    case Op::Merge:
      return cube::merge(*args.at(0), *args.at(1));
    case Op::Mean:
      return cube::mean(args);
    case Op::Min:
      return cube::minimum(std::span<const Experiment* const>(args));
    case Op::Max:
      return cube::maximum(std::span<const Experiment* const>(args));
  }
  throw std::logic_error("unknown operator");
}

/// Times the steps inside the daemon's plan and run_plan spans for one
/// computed query.
void replay_one(const std::string& text, cube::ExperimentRepository& repo,
                cube::query::QueryEngine& engine, ReplaySamples& out) {
  auto t0 = Clock::now();
  const std::unique_ptr<cube::query::QueryExpr> expr =
      cube::query::parse_query(text);
  out.parse_ms.push_back(ms_since(t0));
  const cube::query::QueryPlan plan = engine.plan(*expr);

  // The daemon's engine runs with the result cache on: before executing,
  // run_plan snapshots the repository index for cached sub-results and
  // looks up every node's key.  The replay engine has the cache off so
  // that it computes; the same scan is timed here instead.
  // The lookups' outcome is unused: the replay computes regardless.
  t0 = Clock::now();
  std::map<std::string, std::filesystem::path> cached;
  for (const cube::RepoEntry& entry : repo.entries_snapshot()) {
    const auto it = entry.attributes.find(cube::query::kCacheKeyAttribute);
    if (it != entry.attributes.end()) {
      cached.emplace(it->second, repo.directory() / entry.file);
    }
  }
  std::size_t hits = 0;
  for (const cube::query::PlanNode& node : plan.nodes) {
    if (node.kind != cube::query::PlanNode::Kind::Load) {
      hits += cached.count(cube::digest_hex(node.key));
    }
  }
  out.cache_scan_ms.push_back(ms_since(t0));
  (void)hits;

  const cube::query::QueryResult result = engine.run_plan(plan);
  out.bytes_read.push_back(static_cast<double>(result.stats.bytes_loaded));
  out.load_ms.push_back(result.stats.load_ms);
  out.eval_ms.push_back(result.stats.eval_ms);

  // The plan's DAG once more through the io and algebra entry points,
  // sequentially: operand loads, metadata integration, operators.
  std::vector<std::optional<Experiment>> value(plan.nodes.size());
  double io_load = 0.0, integrate = 0.0, operate = 0.0, operands = 0.0;
  for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
    const cube::query::PlanNode& node = plan.nodes[i];
    if (node.kind == cube::query::PlanNode::Kind::Load) {
      t0 = Clock::now();
      value[i].emplace(repo.load(node.operand.id));
      io_load += ms_since(t0);
      operands += 1.0;
      continue;
    }
    std::vector<const Experiment*> args;
    for (std::size_t a : node.args) args.push_back(&*value.at(a));
    t0 = Clock::now();
    (void)cube::integrate_metadata(std::span<const Experiment* const>(args));
    integrate += ms_since(t0);
    t0 = Clock::now();
    value[i].emplace(apply_op(node, args));
    operate += ms_since(t0);
  }
  out.io_load_ms.push_back(io_load);
  out.integrate_ms.push_back(integrate);
  out.operator_ms.push_back(operate);
  out.operands.push_back(operands);
}

double p50(const std::vector<double>& v) { return quantile(v, 0.5); }

}  // namespace

void replay_queries(const std::vector<std::string>& texts, std::size_t count,
                    cube::ExperimentRepository& repo,
                    cube::query::QueryEngine& engine, ReplaySamples& out) {
  const std::size_t n = std::min(count, texts.size());
  for (std::size_t i = 0; i < n; ++i) {
    replay_one(texts[i * texts.size() / n], repo, engine, out);
  }
}

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> kMetrics = {
      {"client.decode_ms", "ms"},
      {"client.result_bytes", "bytes"},
      {"client.meta_shipped_share", "ratio"},
      {"wire.overhead_ms", "ms"},
      {"service.time_ms", "ms"},
      {"service.cache_hit_ratio", "ratio"},
      {"service.computes_per_query", "count"},
      {"service.busy_share", "ratio"},
      {"service.queue_wait_ms", "ms"},
      {"service.inflight_peak", "count"},
      {"service.encode_ms", "ms"},
      {"query.parse_ms", "ms"},
      {"query.plan_ms", "ms"},
      {"query.analyze_ms", "ms"},
      {"query.cache_scan_ms", "ms"},
      {"query.exec_ms", "ms"},
      {"query.load_ms", "ms"},
      {"query.eval_ms", "ms"},
      {"query.operands_per_query", "count"},
      {"io.load_ms", "ms"},
      {"io.bytes_read_per_query", "bytes"},
      {"io.store_p50_ms", "ms"},
      {"io.store_p90_ms", "ms"},
      {"io.bytes_written_per_store", "bytes"},
      {"io.refresh_ms", "ms"},
      {"io.index_entries", "count"},
      {"algebra.integrate_ms", "ms"},
      {"algebra.operator_ms", "ms"},
      {"algebra.cells_per_query", "count"},
      {"algebra.batched_share", "ratio"},
      {"pool.queue_wait_ms", "ms"},
      {"closure.unattributed_ms", "ms"},
      {"closure.unattributed_share", "ratio"},
      {"trace.overhead_share", "ratio"},
  };
  return kMetrics;
}

std::vector<LayerValue> derive_layers(const TracedPhase& phase) {
  const LoadStats& load = phase.traced;
  const ReplaySamples& replay = phase.replay;
  std::map<std::string, cube::obs::MetricSample> delta;
  for (cube::obs::MetricSample& s : phase.delta.snapshot()) {
    delta.emplace(s.name, std::move(s));
  }
  auto value = [&](const std::string& name) {
    auto it = delta.find(name);
    return it == delta.end() ? 0.0 : it->second.value;
  };
  auto p50_ms = [&](const std::string& histogram) {
    auto it = delta.find(histogram);
    return it == delta.end() || it->second.count == 0
               ? 0.0
               : it->second.p50 * 1000.0;
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  const double queries = value("server.queries");
  const double computes = ratio(value("server.computes"), queries);
  // The daemon's own spans, recorded during the traced rounds: duration
  // per span in ms, less the nested span that gets a metric of its own
  // (server.plan contains server.analyze, server.compute contains
  // server.serialize), so that the four do not overlap.  The daemon plans
  // and analyzes only on a plan-cache miss; the span counts say how often.
  std::map<std::string, std::vector<double>> span_ms;
  for (const cube::obs::ThreadSnapshot& thread : phase.spans) {
    std::vector<double> self(thread.spans.size());
    for (std::size_t i = 0; i < thread.spans.size(); ++i) {
      const cube::obs::SpanRecord& span = thread.spans[i];
      self[i] = static_cast<double>(span.end_ns - span.start_ns) / 1e6;
    }
    for (std::size_t i = 0; i < thread.spans.size(); ++i) {
      const cube::obs::SpanRecord& span = thread.spans[i];
      const std::string_view name = span.name;
      if (span.parent != cube::obs::kNoParent &&
          (name == "server.analyze" || name == "server.serialize")) {
        self[span.parent] -=
            static_cast<double>(span.end_ns - span.start_ns) / 1e6;
      }
    }
    for (std::size_t i = 0; i < thread.spans.size(); ++i) {
      span_ms[thread.spans[i].name].push_back(self[i]);
    }
  }
  auto spans = [&](const char* name) -> const std::vector<double>& {
    static const std::vector<double> kNone;
    auto it = span_ms.find(name);
    return it == span_ms.end() ? kNone : it->second;
  };
  const double plans =
      ratio(static_cast<double>(spans("server.plan").size()), queries);
  const double analyses =
      ratio(static_cast<double>(spans("server.analyze").size()), queries);

  std::vector<double> wire;
  for (std::size_t i = 0; i < load.raw_ms.size(); ++i) {
    wire.push_back(load.raw_ms[i] - load.server_ms[i]);
  }
  const double answered = static_cast<double>(load.rt_ms.size());
  const double io_written = value("io.bin.bytes_written") +
                            value("io.xml.bytes_written") +
                            value("io.meta.bytes_written");
  const double cells = value("algebra.kernel.identity_dense_cells") +
                       value("algebra.kernel.remap_dense_cells") +
                       value("algebra.kernel.identity_sparse_nnz") +
                       value("algebra.kernel.remap_sparse_nnz");
  const double batched = value("algebra.kernel.path_batched");
  const double per_operand = value("algebra.kernel.path_per_operand");

  std::map<std::string, double> v;
  v["client.decode_ms"] = p50(load.decode_ms);
  v["client.result_bytes"] = ratio(load.result_bytes, answered);
  v["client.meta_shipped_share"] =
      ratio(static_cast<double>(load.meta_shipped), answered);
  v["wire.overhead_ms"] = p50(wire);
  v["service.time_ms"] = p50(load.server_ms);
  v["service.cache_hit_ratio"] = ratio(value("server.cache_hits"), queries);
  v["service.computes_per_query"] = computes;
  v["service.busy_share"] = ratio(value("server.busy"), queries);
  v["service.queue_wait_ms"] = p50_ms("server.queue_wait");
  v["service.inflight_peak"] = phase.inflight_peak;
  // Per-query times: a layer's p50 per call, weighted by how often the
  // daemon crossed it per query of this workload.  Plan, analysis, run_plan
  // and serialization are the daemon's spans; the finer steps inside them
  // come from the replay.
  v["service.encode_ms"] = computes * p50(spans("server.serialize"));
  v["query.parse_ms"] = plans * p50(replay.parse_ms);
  v["query.plan_ms"] = plans * p50(spans("server.plan"));
  v["query.analyze_ms"] = analyses * p50(spans("server.analyze"));
  v["query.cache_scan_ms"] = computes * p50(replay.cache_scan_ms);
  v["query.exec_ms"] = computes * p50(spans("server.compute"));
  v["query.load_ms"] = computes * p50(replay.load_ms);
  v["query.eval_ms"] = computes * p50(replay.eval_ms);
  v["query.operands_per_query"] = computes * p50(replay.operands);
  v["io.load_ms"] = computes * p50(replay.io_load_ms);
  v["io.bytes_read_per_query"] = computes * p50(replay.bytes_read);
  // Without a background writer, the stores are the daemon's own
  // derived-result stores (repo.store spans).
  const std::vector<std::vector<double>> stores =
      phase.store_groups.empty()
          ? std::vector<std::vector<double>>{spans("repo.store")}
          : phase.store_groups;
  v["io.store_p50_ms"] = median_of_groups(stores, 0.5);
  v["io.store_p90_ms"] = median_of_groups(stores, 0.9);
  v["io.bytes_written_per_store"] = ratio(io_written, value("repo.stores"));
  v["io.refresh_ms"] = p50(phase.refresh_ms);
  v["io.index_entries"] = static_cast<double>(phase.index_entries);
  v["algebra.integrate_ms"] = computes * p50(replay.integrate_ms);
  v["algebra.operator_ms"] = computes * p50(replay.operator_ms);
  v["algebra.cells_per_query"] = ratio(cells, queries);
  v["algebra.batched_share"] = ratio(batched, batched + per_operand);
  v["pool.queue_wait_ms"] = p50_ms("pool.queue_wait");

  // Closure: the round trip minus the non-overlapping layer times.
  const double rt = p50(load.rt_ms);
  const double attributed = v["client.decode_ms"] + v["wire.overhead_ms"] +
                            v["query.plan_ms"] + v["query.analyze_ms"] +
                            v["query.exec_ms"] + v["service.encode_ms"];
  v["closure.unattributed_ms"] = rt - attributed;
  v["closure.unattributed_share"] = ratio(rt - attributed, rt);
  v["trace.overhead_share"] = ratio(rt, p50(phase.untraced.rt_ms)) - 1.0;

  std::vector<LayerValue> out;
  for (const LayerMetric& m : layer_metrics()) {
    out.push_back(LayerValue{m.name, v.at(m.name)});
  }
  return out;
}

Experiment export_layers(
    const std::vector<LayerValue>& values, Kind kind,
    const std::vector<std::pair<std::string, std::string>>& attributes) {
  std::vector<LayerMetric> metrics = layer_metrics();
  std::sort(metrics.begin(), metrics.end(),
            [](const LayerMetric& a, const LayerMetric& b) {
              return std::string_view(a.name) < std::string_view(b.name);
            });
  auto layer_of = [](std::string_view metric) {
    return std::string(metric.substr(0, metric.find('.')));
  };

  auto md = std::make_unique<cube::Metadata>();
  std::map<std::string, const cube::Metric*> metric_of;
  for (const LayerMetric& m : metrics) {
    const std::string_view unit = m.unit;
    const cube::Unit model_unit = unit == "ms"      ? cube::Unit::Seconds
                                  : unit == "bytes" ? cube::Unit::Bytes
                                                    : cube::Unit::Occurrences;
    metric_of[m.name] =
        &md->add_metric(nullptr, m.name, m.name, model_unit, m.unit);
  }
  const cube::Region& root_region =
      md->add_region("round_trip", "perfbench", -1, -1);
  const cube::Cnode& root = md->add_cnode_for_region(nullptr, root_region);
  std::map<std::string, const cube::Cnode*> cnode_of;
  for (const LayerMetric& m : metrics) {
    const std::string layer = layer_of(m.name);
    if (cnode_of.count(layer) != 0) continue;
    const cube::Region& r = md->add_region(layer, "perfbench", -1, -1);
    cnode_of[layer] = &md->add_cnode_for_region(&root, r);
  }
  cube::Machine& machine = md->add_machine("host");
  cube::SysNode& node = md->add_node(machine, "node0");
  cube::Process& process = md->add_process(node, "perfbench", 0);
  std::map<std::string, const cube::Thread*> thread_of;
  const std::string workloads[] = {"cold_series", "ingest_lookup"};
  for (std::size_t i = 0; i < std::size(workloads); ++i) {
    thread_of[workloads[i]] =
        &md->add_thread(process, workloads[i], static_cast<long>(i));
  }

  Experiment e(std::move(md), cube::StorageKind::Dense);
  const cube::Thread& thread = *thread_of.at(kind_name(kind));
  for (const LayerValue& lv : values) {
    const cube::Metric& metric = *metric_of.at(lv.name);
    const double scale = metric.unit() == cube::Unit::Seconds ? 1e-3 : 1.0;
    e.set(metric, *cnode_of.at(layer_of(lv.name)), thread, lv.value * scale);
  }
  e.set_name(std::string("perfbench.") + kind_name(kind));
  for (const auto& [key, val] : attributes) e.set_attribute(key, val);
  return e;
}

}  // namespace perfbench
