#include "lint/lint.hpp"

#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "common/error.hpp"

namespace cube::lint {

namespace {

std::string metric_location(const Metric& m) {
  return "metric \"" + m.unique_name() + "\"";
}

std::string cnode_location(const Cnode& c) {
  return "cnode #" + std::to_string(c.index()) + " (" + c.callee().name() +
         ")";
}

std::string cell_location(const Metadata& md, std::size_t m, std::size_t c,
                          std::size_t t) {
  std::string out = m < md.metrics().size()
                        ? metric_location(*md.metrics()[m])
                        : "metric #" + std::to_string(m);
  out += " / ";
  out += c < md.cnodes().size() ? cnode_location(*md.cnodes()[c])
                                : "cnode #" + std::to_string(c);
  out += " / thread #" + std::to_string(t);
  return out;
}

/// True if `entity` is the `index`-th element of `owned` — i.e. a pointer
/// into this metadata, not into some other instance.
template <typename T>
bool owned_by(const std::vector<std::unique_ptr<T>>& owned, const T* entity,
              std::size_t index) {
  return index < owned.size() && owned[index].get() == entity;
}

/// Checks one forest (metrics or cnodes): dense indices, parent/child link
/// symmetry, parent ownership, and acyclicity of the parent chains.
template <typename Node>
void lint_forest(const std::vector<std::unique_ptr<Node>>& nodes,
                 const char* kind,
                 const std::function<std::string(const Node&)>& location,
                 DiagnosticSink& sink) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = *nodes[i];
    if (n.index() != i) {
      sink.error("forest.index-mismatch", location(n),
                 std::string(kind) + " at position " + std::to_string(i) +
                     " carries index " + std::to_string(n.index()),
                 "dense indices must equal the entity's position");
      continue;  // the link checks below index by position
    }
    if (n.parent() != nullptr) {
      const Node* parent = n.parent();
      if (!owned_by(nodes, parent, parent->index())) {
        sink.error("ref.foreign-entity", location(n),
                   std::string(kind) +
                       " has a parent that this metadata does not own");
        continue;
      }
      bool linked = false;
      for (const Node* child : parent->children()) {
        if (child == &n) {
          linked = true;
          break;
        }
      }
      if (!linked) {
        sink.error("forest.parent-link", location(n),
                   std::string(kind) + " names " + location(*parent) +
                       " as parent, but is missing from its child list");
      }
    }
    for (const Node* child : n.children()) {
      if (child == nullptr || !owned_by(nodes, child, child->index())) {
        sink.error("ref.foreign-entity", location(n),
                   std::string(kind) +
                       " lists a child that this metadata does not own");
        continue;
      }
      if (child->parent() != &n) {
        sink.error("forest.parent-link", location(*child),
                   std::string(kind) + " is listed as child of " +
                       location(n) + " but points at a different parent");
      }
    }
    // Acyclicity: a parent chain longer than the forest must loop.
    const Node* up = n.parent();
    std::size_t steps = 0;
    while (up != nullptr && steps <= nodes.size()) {
      up = up->parent();
      ++steps;
    }
    if (up != nullptr) {
      sink.error(std::string("forest.") + kind + "-cycle", location(n),
                 std::string("the ") + kind +
                     "'s parent chain never reaches a root (cycle)");
    }
  }
}

void lint_metric_dimension(const Metadata& md, DiagnosticSink& sink) {
  lint_forest<Metric>(
      md.metrics(), "metric", [](const Metric& m) { return metric_location(m); },
      sink);
  std::map<std::string, const Metric*> seen;
  for (const auto& m : md.metrics()) {
    const auto [it, fresh] = seen.emplace(m->unique_name(), m.get());
    if (!fresh) {
      sink.error("forest.duplicate-metric", metric_location(*m),
                 "unique name is already taken by metric #" +
                     std::to_string(it->second->index()),
                 "metric unique names identify metrics across experiments "
                 "and must be unique");
    }
    if (m->parent() != nullptr && m->unit() != m->parent()->unit()) {
      sink.error("forest.unit-mismatch", metric_location(*m),
                 "unit '" + std::string(unit_name(m->unit())) +
                     "' differs from parent's '" +
                     std::string(unit_name(m->parent()->unit())) + "'",
                 "all metrics of one tree share the unit (a parent metric "
                 "includes its children)");
    }
  }
}

void lint_program_dimension(const Metadata& md, DiagnosticSink& sink) {
  lint_forest<Cnode>(
      md.cnodes(), "cnode", [](const Cnode& c) { return cnode_location(c); },
      sink);
  for (std::size_t i = 0; i < md.regions().size(); ++i) {
    if (md.regions()[i]->index() != i) {
      sink.error("forest.index-mismatch",
                 "region \"" + md.regions()[i]->name() + "\"",
                 "region at position " + std::to_string(i) +
                     " carries index " +
                     std::to_string(md.regions()[i]->index()));
    }
  }
  std::map<std::pair<std::string, std::string>, const Region*> regions;
  for (const auto& r : md.regions()) {
    const auto [it, fresh] =
        regions.emplace(std::make_pair(r->name(), r->module()), r.get());
    if (!fresh) {
      sink.warning("forest.shadowed-region",
                   "region \"" + r->name() + "\" (" + r->module() + ")",
                   "(name, module) duplicates region #" +
                       std::to_string(it->second->index()),
                   "cross-experiment matching uses the first occurrence; "
                   "the duplicate can never be matched");
    }
  }
  for (std::size_t i = 0; i < md.callsites().size(); ++i) {
    const CallSite& cs = *md.callsites()[i];
    if (cs.index() != i) {
      sink.error("forest.index-mismatch", "csite #" + std::to_string(i),
                 "call site at position " + std::to_string(i) +
                     " carries index " + std::to_string(cs.index()));
    }
    const Region& callee = cs.callee();
    if (!owned_by(md.regions(), &callee, callee.index())) {
      sink.error("ref.dangling-callee", "csite #" + std::to_string(cs.index()),
                 "call site's callee region is not owned by this metadata");
    }
  }
  for (const auto& c : md.cnodes()) {
    const CallSite& cs = c->callsite();
    if (!owned_by(md.callsites(), &cs, cs.index())) {
      sink.error("ref.dangling-callsite", cnode_location(*c),
                 "cnode's call site is not owned by this metadata");
    }
  }
}

void lint_system_dimension(const Metadata& md, DiagnosticSink& sink) {
  for (const auto& machine : md.machines()) {
    if (machine->nodes().empty()) {
      sink.warning("forest.empty-machine",
                   "machine \"" + machine->name() + "\"",
                   "machine hosts no nodes");
    }
  }
  for (const auto& node : md.nodes()) {
    if (node->processes().empty()) {
      sink.warning("forest.empty-node", "node \"" + node->name() + "\"",
                   "node hosts no processes");
    }
    if (!owned_by(md.machines(), &node->machine(), node->machine().index())) {
      sink.error("ref.foreign-entity", "node \"" + node->name() + "\"",
                 "node's machine is not owned by this metadata");
    }
  }
  std::map<long, const Process*> ranks;
  for (const auto& p : md.processes()) {
    const std::string loc = "process rank " + std::to_string(p->rank());
    const auto [it, fresh] = ranks.emplace(p->rank(), p.get());
    if (!fresh) {
      sink.error("forest.duplicate-rank", loc,
                 "rank is already taken by process #" +
                     std::to_string(it->second->index()),
                 "process ranks are the cross-experiment identity of the "
                 "system dimension and must be unique");
    }
    if (p->threads().empty()) {
      sink.error("forest.empty-process", loc,
                 "process owns no threads",
                 "the thread level is mandatory: a pure message-passing "
                 "process is a single-threaded process");
    }
    if (!owned_by(md.nodes(), &p->node(), p->node().index())) {
      sink.error("ref.foreign-entity", loc,
                 "process's node is not owned by this metadata");
    }
  }
  std::map<std::pair<long, long>, const Thread*> thread_ids;
  for (std::size_t i = 0; i < md.threads().size(); ++i) {
    const Thread& t = *md.threads()[i];
    const std::string loc = "thread #" + std::to_string(i);
    if (t.index() != i) {
      sink.error("forest.index-mismatch", loc,
                 "thread at position " + std::to_string(i) +
                     " carries index " + std::to_string(t.index()));
    }
    if (!owned_by(md.processes(), &t.process(), t.process().index())) {
      sink.error("ref.foreign-entity", loc,
                 "thread's process is not owned by this metadata");
      continue;
    }
    const auto [it, fresh] =
        thread_ids.emplace(std::make_pair(t.rank(), t.thread_id()), &t);
    if (!fresh) {
      sink.error("forest.duplicate-thread", loc,
                 "(rank " + std::to_string(t.rank()) + ", thread id " +
                     std::to_string(t.thread_id()) +
                     ") is already taken by thread #" +
                     std::to_string(it->second->index()),
                 "(rank, thread id) is the cross-experiment identity of a "
                 "thread and must be unique");
    }
  }
}

}  // namespace

void lint_metadata(const Metadata& metadata, DiagnosticSink& sink,
                   const Options& options) {
  if (metadata.num_metrics() == 0) {
    sink.warning("forest.empty-dimension", "", "metadata defines no metrics");
  }
  if (metadata.num_cnodes() == 0) {
    sink.warning("forest.empty-dimension", "",
                 "metadata defines no call-tree nodes");
  }
  if (metadata.num_threads() == 0) {
    sink.warning("forest.empty-dimension", "", "metadata defines no threads");
  }
  lint_metric_dimension(metadata, sink);
  lint_program_dimension(metadata, sink);
  lint_system_dimension(metadata, sink);

  if (!metadata.frozen()) {
    sink.note("meta.unfrozen", "",
              "metadata is still mutable; the structural digest is not "
              "available yet");
  } else if (options.check_digest) {
    // The frozen digest was computed once at freeze(); recompute it over a
    // structural copy to prove the instance was not corrupted since.
    auto copy = metadata.clone();
    copy->freeze();
    if (copy->digest() != metadata.digest()) {
      sink.error("meta.digest-mismatch", "",
                 "frozen digest does not match a recomputation over the "
                 "current entities",
                 "the metadata was structurally modified after freeze(), "
                 "which the frozen contract forbids");
    }
  }
}

namespace {

/// Reports value findings with a cap: the first `max_per_rule` get their
/// own diagnostic, the rest fold into one summary.
class CappedRule {
 public:
  CappedRule(DiagnosticSink& sink, std::string rule, Level level,
             std::size_t cap)
      : sink_(sink), rule_(std::move(rule)), level_(level), cap_(cap) {}

  void report(std::string location, std::string message, std::string hint) {
    ++count_;
    if (cap_ == 0 || count_ <= cap_) {
      sink_.report(rule_, level_, std::move(location), std::move(message),
                   std::move(hint));
    }
  }

  void finish(const std::string& what) {
    if (cap_ != 0 && count_ > cap_) {
      sink_.report(rule_, level_, "",
                   std::to_string(count_ - cap_) + " further " + what +
                       " suppressed (" + std::to_string(count_) +
                       " in total)");
    }
  }

 private:
  DiagnosticSink& sink_;
  std::string rule_;
  Level level_;
  std::size_t cap_;
  std::size_t count_ = 0;
};

}  // namespace

void lint_experiment(const Experiment& experiment, DiagnosticSink& sink,
                     const Options& options) {
  const Metadata& md = experiment.metadata();
  lint_metadata(md, sink, options);

  const SeverityStore& sev = experiment.severity();
  if (sev.num_metrics() != md.num_metrics() ||
      sev.num_cnodes() != md.num_cnodes() ||
      sev.num_threads() != md.num_threads()) {
    sink.error(
        "sev.dims-mismatch", "",
        "severity store spans " + std::to_string(sev.num_metrics()) + " x " +
            std::to_string(sev.num_cnodes()) + " x " +
            std::to_string(sev.num_threads()) + " cells but the metadata "
            "defines " + std::to_string(md.num_metrics()) + " x " +
            std::to_string(md.num_cnodes()) + " x " +
            std::to_string(md.num_threads()),
        "the severity function must be defined exactly on the metric x "
        "cnode x thread cross product");
    return;  // cell decoding below would mislocate findings
  }

  const std::string kind_attr = experiment.attribute("cube::kind");
  if (!kind_attr.empty() && kind_attr != "original" && kind_attr != "derived") {
    sink.warning("attr.bad-kind", "attribute \"cube::kind\"",
                 "value '" + kind_attr +
                     "' is neither 'original' nor 'derived'",
                 "unknown kinds silently fall back to original");
  }
  if (experiment.kind() == ExperimentKind::Derived &&
      experiment.provenance().empty()) {
    sink.note("attr.missing-provenance", "",
              "derived experiment carries no cube::provenance attribute");
  }

  if (!options.check_values) return;

  CappedRule non_finite(sink, "sev.non-finite", Level::Error,
                        options.max_per_rule);
  CappedRule negative(sink, "sev.negative", Level::Warning,
                      options.max_per_rule);
  const bool original = experiment.kind() == ExperimentKind::Original;
  const std::size_t threads = sev.num_threads();
  const std::size_t plane = sev.plane_size();
  const auto check_cell = [&](std::size_t flat, Severity v) {
    const std::size_t m = plane == 0 ? 0 : flat / plane;
    const std::size_t rem = plane == 0 ? 0 : flat % plane;
    const std::size_t c = threads == 0 ? 0 : rem / threads;
    const std::size_t t = threads == 0 ? 0 : rem % threads;
    if (!std::isfinite(v)) {
      non_finite.report(cell_location(md, m, c, t),
                        "severity value is not finite",
                        "NaN/Inf poison every aggregation and operator "
                        "result they touch");
    } else if (v < 0.0 && original) {
      negative.report(cell_location(md, m, c, t),
                      "negative severity in an original experiment",
                      "measured quantities (sec, bytes, occ) are "
                      "non-negative; only derived differences may go "
                      "negative");
    }
  };

  if (sev.kind() == StorageKind::Dense) {
    const auto cells = static_cast<const DenseSeverity&>(sev).cells();
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (cells[i] != 0.0) check_cell(i, cells[i]);
    }
  } else {
    for (const auto& [key, value] :
         static_cast<const SparseSeverity&>(sev).sorted_cells()) {
      check_cell(static_cast<std::size_t>(key), value);
    }
  }
  non_finite.finish("non-finite cells");
  negative.finish("negative cells");
}

void lint_compatibility(std::span<const Experiment* const> operands,
                        DiagnosticSink& sink) {
  // Metric identity is (unique name, unit): operands that disagree on a
  // metric's unit cannot integrate — the merged metric set would need two
  // metrics under one unique name.
  std::map<std::string, std::pair<Unit, std::size_t>> units;
  for (std::size_t op = 0; op < operands.size(); ++op) {
    for (const auto& m : operands[op]->metadata().metrics()) {
      const auto [it, fresh] =
          units.emplace(m->unique_name(), std::make_pair(m->unit(), op));
      if (!fresh && it->second.first != m->unit()) {
        sink.error("compat.metric-unit", metric_location(*m),
                   "operand #" + std::to_string(op) + " measures in '" +
                       std::string(unit_name(m->unit())) +
                       "' but operand #" + std::to_string(it->second.second) +
                       " measures in '" +
                       std::string(unit_name(it->second.first)) + "'",
                   "metadata integration cannot merge metrics that share a "
                   "unique name but differ in unit");
      }
    }
  }

  // Differing system shapes are legal (absent tuples are zero-extended)
  // but worth surfacing: a mean over runs at different scales is usually a
  // selector mistake, not an intent.
  std::set<std::pair<long, long>> first_shape;
  bool shape_noted = false;
  for (std::size_t op = 0; op < operands.size() && !shape_noted; ++op) {
    std::set<std::pair<long, long>> shape;
    for (const auto& t : operands[op]->metadata().threads()) {
      shape.emplace(t->rank(), t->thread_id());
    }
    if (op == 0) {
      first_shape = std::move(shape);
    } else if (shape != first_shape) {
      sink.note("compat.thread-shape", "operand #" + std::to_string(op),
                "system dimension differs from operand #0's (different "
                "(rank, thread id) sets)",
                "tuples absent from an operand contribute zero to element-"
                "wise operators");
      shape_noted = true;
    }
  }

  bool any_original = false;
  bool any_derived = false;
  for (const Experiment* e : operands) {
    (e->kind() == ExperimentKind::Original ? any_original : any_derived) =
        true;
  }
  if (any_original && any_derived) {
    sink.note("compat.mixed-kind", "",
              "operands mix original and derived experiments",
              "differences already encode a comparison; aggregating them "
              "with measured runs is usually unintended");
  }
}

void require_valid(const Experiment& experiment, const std::string& context,
                   const Options& options) {
  DiagnosticSink sink;
  lint_experiment(experiment, sink, options);
  if (!sink.reached(Level::Error)) return;
  std::ostringstream message;
  message << context << " failed validation with " << sink.errors()
          << " error(s): ";
  bool first = true;
  for (const Diagnostic& d : sink.diagnostics()) {
    if (d.level != Level::Error) continue;
    if (!first) message << "; ";
    message << "[" << d.rule << "] ";
    if (!d.location.empty()) message << d.location << ": ";
    message << d.message;
    first = false;
  }
  throw ValidationError(message.str());
}

}  // namespace cube::lint
