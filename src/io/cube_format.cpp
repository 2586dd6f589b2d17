#include "io/cube_format.hpp"

#include <map>
#include <sstream>

#include "common/digest.hpp"
#include "common/error.hpp"
#include "common/string_util.hpp"
#include "io/binary_format.hpp"
#include "common/file_io.hpp"
#include "io/xml_parser.hpp"
#include "io/xml_writer.hpp"
#include "obs/metrics.hpp"
#include "obs/tracer.hpp"

namespace cube {

namespace {

obs::Counter& xml_bytes_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.xml.bytes_read", obs::SampleUnit::Bytes);
  return c;
}

obs::Counter& sev_bytes_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.sev.bytes_read", obs::SampleUnit::Bytes);
  return c;
}

obs::Counter& xml_bytes_written_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter(
      "io.xml.bytes_written", obs::SampleUnit::Bytes);
  return c;
}

/// Adds the stream-position delta across `write` to io.xml.bytes_written
/// (-1 positions, from streams without a position, are skipped).
template <typename WriteFn>
void xml_write_counted(std::ostream& out, const WriteFn& write) {
  const auto before = out.tellp();
  write();
  const auto after = out.tellp();
  if (before != std::streampos(-1) && after != std::streampos(-1)) {
    xml_bytes_written_counter().add(static_cast<std::uint64_t>(after - before));
  }
}

constexpr const char* kFormatVersion = "1.0";
// Version 1.1 adds the by-reference form: a <metaref digest="..."/>
// element replaces the inline <metrics>/<program>/<system> sections.
constexpr const char* kRefFormatVersion = "1.1";
// Version 1.2 adds the columnar form: a <sevref digest="..."/> element
// replaces the <severity> section and points at a CUBESEV1 blob.
constexpr const char* kSevRefFormatVersion = "1.2";

// Severity values are written with enough digits to round-trip doubles.
std::string severity_to_string(Severity v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void write_metric(XmlWriter& w, const Metric& m) {
  w.open_element("metric");
  w.attribute("id", m.index());
  w.open_element("disp_name");
  w.text(m.display_name());
  w.close_element();
  w.open_element("uniq_name");
  w.text(m.unique_name());
  w.close_element();
  w.open_element("uom");
  w.text(unit_name(m.unit()));
  w.close_element();
  if (!m.description().empty()) {
    w.open_element("descr");
    w.text(m.description());
    w.close_element();
  }
  for (const Metric* child : m.children()) {
    write_metric(w, *child);
  }
  w.close_element();
}

void write_cnode(XmlWriter& w, const Cnode& c) {
  w.open_element("cnode");
  w.attribute("id", c.index());
  w.attribute("csite", c.callsite().index());
  for (const Cnode* child : c.children()) {
    write_cnode(w, *child);
  }
  w.close_element();
}

std::string coords_to_string(const std::vector<long>& coords) {
  std::string out;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    if (i > 0) out += ' ';
    out += std::to_string(coords[i]);
  }
  return out;
}

// Severity ids written here are the dense in-memory indices; in the
// by-reference form they therefore index the referenced metadata directly.
void write_severity_section(XmlWriter& w, const Experiment& experiment) {
  const Metadata& md = experiment.metadata();
  w.open_element("severity");
  const SeverityStore& sev = experiment.severity();
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    bool matrix_open = false;
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      bool all_zero = true;
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        if (sev.get(m, c, t) != 0.0) {
          all_zero = false;
          break;
        }
      }
      if (all_zero) continue;
      if (!matrix_open) {
        w.open_element("matrix");
        w.attribute("metric", m);
        matrix_open = true;
      }
      w.open_element("row");
      w.attribute("cnode", c);
      std::string values;
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        if (t > 0) values += ' ';
        values += severity_to_string(sev.get(m, c, t));
      }
      w.text(values);
      w.close_element();
    }
    if (matrix_open) w.close_element();
  }
  w.close_element();
}

void write_attr_section(XmlWriter& w, const Experiment& experiment) {
  for (const auto& [key, value] : experiment.attributes()) {
    w.open_element("attr");
    w.attribute("key", key);
    w.attribute("value", value);
    w.close_element();
  }
}

}  // namespace

void write_cube_xml_ref(const Experiment& experiment, std::ostream& out) {
  OBS_SPAN("io.xml.write");
  xml_write_counted(out, [&] {
    XmlWriter w(out);
    w.declaration();
    w.open_element("cube");
    w.attribute("version", std::string_view(kRefFormatVersion));
    write_attr_section(w, experiment);
    w.open_element("metaref");
    w.attribute("digest", digest_hex(experiment.metadata().digest()));
    w.close_element();
    write_severity_section(w, experiment);
    w.finish();
  });
}

std::string to_cube_xml_ref(const Experiment& experiment) {
  std::ostringstream os;
  write_cube_xml_ref(experiment, os);
  return os.str();
}

void write_cube_xml_sev_ref(const Experiment& experiment,
                            std::uint64_t sev_digest, std::ostream& out) {
  OBS_SPAN("io.xml.write");
  xml_write_counted(out, [&] {
    XmlWriter w(out);
    w.declaration();
    w.open_element("cube");
    w.attribute("version", std::string_view(kSevRefFormatVersion));
    write_attr_section(w, experiment);
    w.open_element("metaref");
    w.attribute("digest", digest_hex(experiment.metadata().digest()));
    w.close_element();
    w.open_element("sevref");
    w.attribute("digest", digest_hex(sev_digest));
    w.attribute("storage",
                experiment.severity().kind() == StorageKind::Dense
                    ? std::string_view("dense")
                    : std::string_view("sparse"));
    w.close_element();
    w.finish();
  });
}

std::string to_cube_xml_sev_ref(const Experiment& experiment,
                                std::uint64_t sev_digest) {
  std::ostringstream os;
  write_cube_xml_sev_ref(experiment, sev_digest, os);
  return os.str();
}

void write_cube_xml(const Experiment& experiment, std::ostream& out) {
  OBS_SPAN("io.xml.write");
  const Metadata& md = experiment.metadata();
  xml_write_counted(out, [&] {
  XmlWriter w(out);
  w.declaration();
  w.open_element("cube");
  w.attribute("version", std::string_view(kFormatVersion));

  write_attr_section(w, experiment);

  w.open_element("metrics");
  for (const Metric* root : md.metric_roots()) {
    write_metric(w, *root);
  }
  w.close_element();

  w.open_element("program");
  for (const auto& r : md.regions()) {
    w.open_element("region");
    w.attribute("id", r->index());
    w.attribute("name", r->name());
    w.attribute("mod", r->module());
    w.attribute("begin", r->begin_line());
    w.attribute("end", r->end_line());
    if (!r->description().empty()) w.attribute("descr", r->description());
    w.close_element();
  }
  for (const auto& cs : md.callsites()) {
    w.open_element("csite");
    w.attribute("id", cs->index());
    w.attribute("file", cs->file());
    w.attribute("line", cs->line());
    w.attribute("callee", cs->callee().index());
    w.close_element();
  }
  for (const Cnode* root : md.cnode_roots()) {
    write_cnode(w, *root);
  }
  w.close_element();

  w.open_element("system");
  for (const auto& machine : md.machines()) {
    w.open_element("machine");
    w.attribute("id", machine->index());
    w.attribute("name", machine->name());
    for (const SysNode* node : machine->nodes()) {
      w.open_element("node");
      w.attribute("id", node->index());
      w.attribute("name", node->name());
      for (const Process* process : node->processes()) {
        w.open_element("process");
        w.attribute("id", process->index());
        w.attribute("name", process->name());
        w.attribute("rank", process->rank());
        if (process->coords()) {
          w.attribute("coords", coords_to_string(*process->coords()));
        }
        for (const Thread* thread : process->threads()) {
          w.open_element("thread");
          w.attribute("id", thread->index());
          w.attribute("name", thread->name());
          w.attribute("tid", thread->thread_id());
          w.close_element();
        }
        w.close_element();
      }
      w.close_element();
    }
    w.close_element();
  }
  w.close_element();

  write_severity_section(w, experiment);

  w.finish();
  });
}

void write_cube_xml_file(const Experiment& experiment,
                         const std::string& path) {
  write_bytes(path, to_cube_xml(experiment));
}

std::string to_cube_xml(const Experiment& experiment) {
  std::ostringstream os;
  write_cube_xml(experiment, os);
  return os.str();
}

namespace {

std::size_t parse_id(const XmlNode& node, std::string_view attr) {
  std::size_t v = 0;
  if (!parse_size(node.required_attr(attr), v)) {
    throw Error("element <" + node.name + "> has non-numeric attribute '" +
                std::string(attr) + "'");
  }
  return v;
}

long parse_long_attr(const XmlNode& node, std::string_view attr,
                     long fallback) {
  const auto v = node.attr(attr);
  if (!v) return fallback;
  double d = 0;
  if (!parse_double(*v, d)) {
    throw CheckError("parse.number",
                     "element <" + node.name + "> / attribute '" +
                         std::string(attr) + "'",
                     "value '" + std::string(*v) + "' is not a number");
  }
  return static_cast<long>(d);
}

/// Rebuilds a Metadata + severity from the parsed DOM.  File ids are
/// remapped to dense in-memory indices through the id maps.
class CubeDecoder {
 public:
  CubeDecoder(const XmlNode& root, StorageKind storage,
              const MetadataResolver& resolver,
              const SeverityResolver& sev_resolver)
      : root_(root),
        storage_(storage),
        resolver_(resolver),
        sev_resolver_(sev_resolver) {}

  Experiment decode() {
    if (root_.name != "cube") {
      throw Error("document element is <" + root_.name + ">, expected <cube>");
    }
    if (const XmlNode* ref = root_.child("metaref")) {
      return decode_by_reference(*ref);
    }
    auto md = std::make_unique<Metadata>();
    decode_metrics(*md);
    decode_program(*md);
    decode_system(*md);
    md->validate();

    Experiment experiment(std::move(md), storage_);
    decode_attributes(experiment);
    decode_severity(experiment);
    return experiment;
  }

 private:
  Experiment decode_by_reference(const XmlNode& ref) {
    const std::string hex(ref.required_attr("digest"));
    std::uint64_t digest = 0;
    if (!parse_hex64(hex, digest)) {
      throw CheckError("meta.bad-ref", "element <metaref>",
                       "malformed metadata digest '" + hex + "'");
    }
    if (!resolver_) {
      throw Error(
          "by-reference cube document requires a metadata resolver "
          "(metadata digest " +
          hex + ")");
    }
    auto md = resolver_(digest);
    if (md == nullptr) {
      throw CheckError("meta.unresolved-ref", "element <metaref>",
                       "no metadata blob resolves digest " + hex);
    }
    // Columnar form: the severity lives in a CUBESEV1 blob referenced by
    // digest; there is no <severity> section to decode.
    if (const XmlNode* sref = root_.child("sevref")) {
      return decode_columnar(*sref, std::move(md));
    }
    // Severity ids in the by-reference form ARE the dense indices of the
    // referenced metadata: the id maps become the identity.
    for (MetricIndex m = 0; m < md->num_metrics(); ++m) metric_ids_[m] = m;
    for (CnodeIndex c = 0; c < md->num_cnodes(); ++c) cnode_ids_[c] = c;
    Experiment experiment(std::move(md), storage_);
    decode_attributes(experiment);
    decode_severity(experiment);
    return experiment;
  }

  Experiment decode_columnar(const XmlNode& sref,
                             std::shared_ptr<const Metadata> md) {
    const std::string hex(sref.required_attr("digest"));
    std::uint64_t digest = 0;
    if (!parse_hex64(hex, digest)) {
      throw CheckError("sev.bad-ref", "element <sevref>",
                       "malformed severity digest '" + hex + "'");
    }
    if (!sev_resolver_) {
      throw Error(
          "columnar cube document requires a severity resolver "
          "(severity digest " +
          hex + ")");
    }
    const StorageKind blob_kind = sref.attr("storage").value_or("dense") ==
                                          std::string_view("sparse")
                                      ? StorageKind::Sparse
                                      : StorageKind::Dense;
    auto store = sev_resolver_(digest, blob_kind);
    if (store == nullptr) {
      throw CheckError("sev.unresolved-ref", "element <sevref>",
                       "no severity blob resolves digest " + hex);
    }
    Experiment experiment(std::move(md), std::move(store));
    decode_attributes(experiment);
    return experiment;
  }

  void decode_attributes(Experiment& e) const {
    for (const XmlNode* attr : root_.children_named("attr")) {
      e.set_attribute(std::string(attr->required_attr("key")),
                      std::string(attr->required_attr("value")));
    }
  }

  void decode_metric_tree(Metadata& md, const XmlNode& node,
                          const Metric* parent) {
    const std::size_t file_id = parse_id(node, "id");
    const std::string uniq = node.child_text("uniq_name");
    if (uniq.empty()) {
      throw Error("metric without <uniq_name>");
    }
    std::string disp = node.child_text("disp_name");
    if (disp.empty()) disp = uniq;
    const Metric& m =
        md.add_metric(parent, uniq, disp, parse_unit(node.child_text("uom")),
                      node.child_text("descr"));
    if (!metric_ids_.emplace(file_id, m.index()).second) {
      throw CheckError("forest.duplicate-id",
                       "metric #" + std::to_string(file_id),
                       "the metric id appears more than once in the document");
    }
    for (const XmlNode* child : node.children_named("metric")) {
      decode_metric_tree(md, *child, &m);
    }
  }

  void decode_metrics(Metadata& md) {
    const XmlNode* metrics = root_.child("metrics");
    if (metrics == nullptr) throw Error("missing <metrics> section");
    for (const XmlNode* m : metrics->children_named("metric")) {
      decode_metric_tree(md, *m, nullptr);
    }
  }

  void decode_cnode_tree(Metadata& md, const XmlNode& node,
                         const Cnode* parent) {
    const std::size_t file_id = parse_id(node, "id");
    const std::size_t csite_id = parse_id(node, "csite");
    const auto cs = callsite_ids_.find(csite_id);
    if (cs == callsite_ids_.end()) {
      throw CheckError("ref.dangling-callsite",
                       "cnode #" + std::to_string(file_id),
                       "cnode references csite id " +
                           std::to_string(csite_id) +
                           " which the <program> section does not define");
    }
    const Cnode& c =
        md.add_cnode(parent, *md.callsites()[cs->second]);
    if (!cnode_ids_.emplace(file_id, c.index()).second) {
      throw CheckError("forest.duplicate-id",
                       "cnode #" + std::to_string(file_id),
                       "the cnode id appears more than once in the document");
    }
    for (const XmlNode* child : node.children_named("cnode")) {
      decode_cnode_tree(md, *child, &c);
    }
  }

  void decode_program(Metadata& md) {
    const XmlNode* program = root_.child("program");
    if (program == nullptr) throw Error("missing <program> section");
    for (const XmlNode* r : program->children_named("region")) {
      const std::size_t file_id = parse_id(*r, "id");
      const Region& region = md.add_region(
          std::string(r->required_attr("name")),
          std::string(r->required_attr("mod")),
          parse_long_attr(*r, "begin", -1), parse_long_attr(*r, "end", -1),
          std::string(r->attr("descr").value_or("")));
      if (!region_ids_.emplace(file_id, region.index()).second) {
        throw CheckError("forest.duplicate-id",
                       "region #" + std::to_string(file_id),
                       "the region id appears more than once in the document");
      }
    }
    for (const XmlNode* cs : program->children_named("csite")) {
      const std::size_t file_id = parse_id(*cs, "id");
      const std::size_t callee_id = parse_id(*cs, "callee");
      const auto callee = region_ids_.find(callee_id);
      if (callee == region_ids_.end()) {
        throw CheckError("ref.dangling-callee",
                         "csite #" + std::to_string(file_id),
                         "csite references callee region id " +
                             std::to_string(callee_id) +
                             " which the <program> section does not define");
      }
      const CallSite& site = md.add_callsite(
          *md.regions()[callee->second],
          std::string(cs->attr("file").value_or("")),
          parse_long_attr(*cs, "line", -1));
      if (!callsite_ids_.emplace(file_id, site.index()).second) {
        throw CheckError("forest.duplicate-id",
                       "csite #" + std::to_string(file_id),
                       "the csite id appears more than once in the document");
      }
    }
    for (const XmlNode* c : program->children_named("cnode")) {
      decode_cnode_tree(md, *c, nullptr);
    }
  }

  void decode_system(Metadata& md) {
    const XmlNode* system = root_.child("system");
    if (system == nullptr) throw Error("missing <system> section");
    for (const XmlNode* mn : system->children_named("machine")) {
      Machine& machine =
          md.add_machine(std::string(mn->attr("name").value_or("machine")));
      for (const XmlNode* nn : mn->children_named("node")) {
        SysNode& node =
            md.add_node(machine, std::string(nn->attr("name").value_or(
                                     "node")));
        for (const XmlNode* pn : nn->children_named("process")) {
          Process& process = md.add_process(
              node, std::string(pn->attr("name").value_or("process")),
              parse_long_attr(*pn, "rank", 0));
          if (const auto coords = pn->attr("coords")) {
            std::vector<long> cs;
            for (const std::string& piece : split(*coords, ' ')) {
              if (piece.empty()) continue;
              double d = 0;
              if (!parse_double(piece, d)) {
                throw CheckError(
                    "parse.number",
                    "process rank " + std::to_string(process.rank()) +
                        " / coordinate #" + std::to_string(cs.size()),
                    "token '" + piece + "' in coords '" +
                        std::string(*coords) + "' is not a number");
              }
              cs.push_back(static_cast<long>(d));
            }
            process.set_coords(std::move(cs));
          }
          for (const XmlNode* tn : pn->children_named("thread")) {
            const std::size_t file_id = parse_id(*tn, "id");
            const Thread& thread = md.add_thread(
                process, std::string(tn->attr("name").value_or("thread")),
                parse_long_attr(*tn, "tid", 0));
            if (!thread_ids_.emplace(file_id, thread.index()).second) {
              throw CheckError("forest.duplicate-id",
                       "thread #" + std::to_string(file_id),
                       "the thread id appears more than once in the document");
            }
          }
        }
      }
    }
  }

  void decode_severity(Experiment& e) const {
    const XmlNode* severity = root_.child("severity");
    if (severity == nullptr) return;  // an all-zero experiment is valid
    const std::size_t num_threads = e.metadata().num_threads();
    for (const XmlNode* matrix : severity->children_named("matrix")) {
      const std::size_t metric_file_id = parse_id(*matrix, "metric");
      const auto m = metric_ids_.find(metric_file_id);
      if (m == metric_ids_.end()) {
        throw CheckError("ref.dangling-metric",
                         "severity matrix metric #" +
                             std::to_string(metric_file_id),
                         "matrix references a metric id the <metrics> "
                         "section does not define");
      }
      for (const XmlNode* row : matrix->children_named("row")) {
        sev_bytes_read_counter().add(row->text.size());
        const std::size_t cnode_file_id = parse_id(*row, "cnode");
        const auto c = cnode_ids_.find(cnode_file_id);
        if (c == cnode_ids_.end()) {
          throw CheckError("ref.dangling-cnode",
                           "metric #" + std::to_string(metric_file_id) +
                               " / severity row cnode #" +
                               std::to_string(cnode_file_id),
                           "row references a cnode id the <program> "
                           "section does not define");
        }
        std::size_t t = 0;
        std::istringstream tokens{row->text};
        std::string piece;
        while (tokens >> piece) {
          if (t >= num_threads) {
            throw CheckError(
                "sev.out-of-range",
                "metric #" + std::to_string(metric_file_id) + " / cnode #" +
                    std::to_string(cnode_file_id) + " / thread #" +
                    std::to_string(t),
                "severity row holds more than the " +
                    std::to_string(num_threads) +
                    " values the system dimension admits");
          }
          double v = 0;
          if (!parse_double(piece, v)) {
            throw CheckError(
                "sev.malformed-value",
                "metric #" + std::to_string(metric_file_id) + " / cnode #" +
                    std::to_string(cnode_file_id) + " / thread #" +
                    std::to_string(t),
                "severity token '" + piece + "' is not a number");
          }
          // Threads were created in document order: file thread position ==
          // in-memory index order within the row.
          if (v != 0.0) e.severity().set(m->second, c->second, t, v);
          ++t;
        }
      }
    }
  }

  const XmlNode& root_;
  StorageKind storage_;
  const MetadataResolver& resolver_;
  const SeverityResolver& sev_resolver_;
  std::map<std::size_t, MetricIndex> metric_ids_;
  std::map<std::size_t, std::size_t> region_ids_;
  std::map<std::size_t, std::size_t> callsite_ids_;
  std::map<std::size_t, CnodeIndex> cnode_ids_;
  std::map<std::size_t, ThreadIndex> thread_ids_;
};

}  // namespace

Experiment read_cube_xml(std::string_view xml, StorageKind storage,
                         const MetadataResolver& resolver,
                         const SeverityResolver& sev_resolver) {
  OBS_SPAN("io.xml.read");
  xml_bytes_read_counter().add(xml.size());
  const auto root = parse_xml(xml);
  return CubeDecoder(*root, storage, resolver, sev_resolver).decode();
}

Experiment read_cube_xml_file(const std::string& path, StorageKind storage,
                              const MetadataResolver& resolver,
                              const SeverityResolver& sev_resolver) {
  return read_cube_xml(read_bytes(path), storage, resolver, sev_resolver);
}

namespace {

/// The repository directory an experiment file belongs to: the file's own
/// directory, or — for the sharded exp/<ab>/ layout, where files sit two
/// levels below the root — the nearest ancestor containing a repository
/// marker (index/, index.xml, or a meta/ blob directory).
std::filesystem::path repo_root_for(const std::filesystem::path& file) {
  std::error_code ec;
  std::filesystem::path dir = file.parent_path();
  std::filesystem::path probe = dir;
  for (int depth = 0; depth < 3 && !probe.empty(); ++depth) {
    if (std::filesystem::exists(probe / "index", ec) ||
        std::filesystem::exists(probe / "index.xml", ec) ||
        std::filesystem::is_directory(probe / "meta", ec)) {
      return probe;
    }
    if (probe == probe.parent_path()) break;
    probe = probe.parent_path();
  }
  return dir;
}

}  // namespace

Experiment read_experiment_file(const std::string& path, StorageKind storage,
                                const MetadataResolver& resolver,
                                const SeverityResolver& sev_resolver) {
  const std::string data = read_bytes(path);
  // Files written by the repository reference their metadata (and, for
  // columnar envelopes, severity) blobs; resolve against the enclosing
  // repository's blob directories unless the caller supplied resolvers.
  std::filesystem::path root;
  if (!resolver || !sev_resolver) root = repo_root_for(path);
  const MetadataResolver effective =
      resolver ? resolver : directory_resolver(root);
  const SeverityResolver effective_sev =
      sev_resolver ? sev_resolver : directory_severity_resolver(root);
  if (data.size() >= 8 && (data.compare(0, 8, "CUBEBIN1") == 0 ||
                           data.compare(0, 8, "CUBEBIN2") == 0)) {
    return read_cube_binary(data, storage, effective);
  }
  return read_cube_xml(data, storage, effective, effective_sev);
}

}  // namespace cube
