#include "lint/rules.hpp"

#include <algorithm>
#include <ostream>

#include "obs/json_export.hpp"

namespace cube::lint {

namespace {

constexpr Level kError = Level::Error;
constexpr Level kWarning = Level::Warning;
constexpr Level kNote = Level::Note;

// Sorted by id (find_rule binary-searches).
constexpr RuleInfo kRules[] = {
    {"compat.metric-unit", kError, "compatibility",
     "operands of one operator agree on every shared metric's unit"},
    {"compat.mixed-kind", kNote, "compatibility",
     "aggregating original with derived experiments is usually unintended"},
    {"compat.thread-shape", kNote, "compatibility",
     "operands span one (rank, thread id) set; absent tuples read as zero"},
    {"cost.over-budget", kError, "plan-analysis",
     "predicted peak resident bytes stay within the configured budget"},
    {"cost.summary", kNote, "plan-analysis",
     "one-line cold/warm cost totals of the analyzed plan"},
    {"file.bad-magic", kError, "file",
     "the stream starts with a known CUBE format magic"},
    {"file.io", kError, "file", "the file is readable"},
    {"file.trailing-bytes", kError, "file",
     "nothing follows the end of the encoded stream"},
    {"file.truncated", kError, "file",
     "the stream holds every field its header promises"},
    {"file.unreadable", kError, "file",
     "the file loads through its format reader"},
    {"forest.cnode-cycle", kError, "experiment",
     "every call-tree parent chain reaches a root"},
    {"forest.duplicate-id", kError, "file",
     "an id appears once within one dimension of a document"},
    {"forest.duplicate-metric", kError, "experiment",
     "metric unique names identify metrics across experiments"},
    {"forest.duplicate-rank", kError, "experiment",
     "processes are identified by their application-level rank"},
    {"forest.duplicate-thread", kError, "experiment",
     "threads are identified by (rank, thread id)"},
    {"forest.empty-dimension", kWarning, "experiment",
     "metrics, call paths, and threads are all non-empty"},
    {"forest.empty-machine", kWarning, "experiment",
     "machines hold at least one node"},
    {"forest.empty-node", kWarning, "experiment",
     "nodes hold at least one process"},
    {"forest.empty-process", kError, "experiment",
     "every process owns at least one thread"},
    {"forest.index-mismatch", kError, "experiment",
     "entity indices equal their position in the owner vector"},
    {"forest.metric-cycle", kError, "experiment",
     "every metric parent chain reaches a root"},
    {"forest.parent-link", kError, "experiment",
     "parent/child links are symmetric"},
    {"forest.shadowed-region", kWarning, "experiment",
     "duplicate (name, module) regions can never be matched"},
    {"forest.unit-mismatch", kError, "experiment",
     "all metrics of one tree share the unit"},
    {"meta.bad-ref", kError, "file",
     "<metaref> digests are 16 hex digits"},
    {"meta.digest-mismatch", kError, "experiment",
     "metadata content hashes to its recorded digest"},
    {"meta.misfiled-blob", kError, "repository",
     "blob meta/<digest>.meta holds the metadata with that digest"},
    {"meta.unfrozen", kNote, "experiment",
     "metadata not yet frozen (no digest available)"},
    {"meta.unresolved-ref", kError, "file",
     "a by-reference file's metadata digest resolves to a blob"},
    {"model.invalid", kError, "file",
     "the reader's own validation accepts the data"},
    {"parse.number", kError, "file",
     "numeric attributes and tokens parse"},
    {"parse.syntax", kError, "file", "the XML document is well-formed"},
    {"perf.series-foldable", kNote, "plan-shape",
     "a nested same-operator chain could fold into one n-ary reduction"},
    {"plan.integration-failed", kError, "plan-analysis",
     "operand metadata integrates under the planned operator"},
    {"plan.metric-unit", kError, "plan-analysis",
     "operands of one planned application agree on every metric's unit"},
    {"plan.mixed-kind", kNote, "plan-analysis",
     "a planned aggregation mixes original and derived experiments"},
    {"plan.opaque-operand", kWarning, "plan-analysis",
     "an operand's geometry is statically known (metadata blob resolvable)"},
    {"plan.thread-shape", kNote, "plan-analysis",
     "operands of one planned application span one (rank, thread id) set"},
    {"ref.dangling-callee", kError, "file",
     "every call site targets a defined region"},
    {"ref.dangling-callsite", kError, "file",
     "every cnode enters through a defined call site"},
    {"ref.dangling-cnode", kError, "file",
     "severity rows reference defined call-tree nodes"},
    {"ref.dangling-metric", kError, "file",
     "severity rows reference defined metrics"},
    {"ref.foreign-entity", kError, "experiment",
     "entity pointers resolve into the same metadata instance"},
    {"repo.bad-index", kError, "repository",
     "the directory holds a parseable repository index"},
    {"repo.digest-mismatch", kError, "repository",
     "every indexed file hashes to the digest its index record carries"},
    {"repo.duplicate-id", kError, "repository",
     "repository entry ids are unique"},
    {"repo.misfiled-blob", kError, "repository",
     "sharded blobs sit in the shard their name's hex prefix selects"},
    {"repo.missing-blob", kError, "repository",
     "every referenced metadata and severity blob exists"},
    {"repo.missing-file", kError, "repository",
     "every indexed experiment file exists"},
    {"repo.orphan-blob", kWarning, "repository",
     "every blob is referenced by some entry"},
    {"repo.orphan-segment", kWarning, "repository",
     "every index segment past the MANIFEST's last entry is listed"},
    {"repo.stale-cache", kWarning, "repository",
     "cached query results reference operands in their recorded state"},
    {"repo.stale-cache-operand", kWarning, "repository",
     "every recorded cache-operand digest still names some repository file"},
    {"repo.stale-segment", kWarning, "repository",
     "no superseded segment or *.tmp file outlives its compaction"},
    {"sev.bad-ref", kError, "file",
     "<sevref> digests are 16 hex digits"},
    {"sev.dims-mismatch", kError, "experiment",
     "the severity store's dimensions equal the metadata's"},
    {"sev.malformed-value", kError, "file", "severity cells hold numbers"},
    {"sev.misfiled-blob", kError, "repository",
     "a severity blob's bytes hash to the digest its name claims"},
    {"sev.negative", kWarning, "experiment",
     "original experiments' severities are non-negative"},
    {"sev.non-finite", kError, "experiment",
     "severities are finite (NaN/Inf poison every aggregation)"},
    {"sev.out-of-range", kError, "experiment",
     "severity is defined exactly on metric x cnode x thread"},
    {"sev.unresolved-ref", kError, "file",
     "a by-reference file's severity digest resolves to a blob"},
};

}  // namespace

std::span<const RuleInfo> rule_registry() noexcept { return kRules; }

const RuleInfo* find_rule(std::string_view id) noexcept {
  const auto it = std::lower_bound(
      std::begin(kRules), std::end(kRules), id,
      [](const RuleInfo& rule, std::string_view key) { return rule.id < key; });
  if (it == std::end(kRules) || it->id != id) return nullptr;
  return &*it;
}

void write_rules_text(std::ostream& out) {
  for (const RuleInfo& rule : kRules) {
    out << rule.id << "  " << level_name(rule.level) << "  " << rule.pass
        << "  " << rule.summary << "\n";
  }
}

void write_rules_json(std::ostream& out) {
  out << "[";
  bool first = true;
  for (const RuleInfo& rule : kRules) {
    out << (first ? "\n" : ",\n") << "  {\"id\": ";
    obs::write_json_string(out, rule.id);
    out << ", \"level\": \"" << level_name(rule.level) << "\", \"pass\": ";
    obs::write_json_string(out, rule.pass);
    out << ", \"summary\": ";
    obs::write_json_string(out, rule.summary);
    out << "}";
    first = false;
  }
  out << "\n]\n";
}

}  // namespace cube::lint
