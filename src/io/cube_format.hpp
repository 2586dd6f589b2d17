// The CUBE XML experiment format: serialization of a full experiment
// (metadata + severity function + attributes) to and from XML.
//
// Layout (modeled on the format the paper describes: a metadata part and
// the severity values stored as a three-dimensional array with one
// dimension each for metric, call path, and thread):
//
//   <cube version="1.0">
//     <attr key="..." value="..."/> ...
//     <metrics>   nested <metric id> with <uniq_name>/<disp_name>/<uom>/
//                 <descr> children </metrics>
//     <program>   flat <region id name mod begin end>, <csite id file line
//                 callee>, nested <cnode id csite> </program>
//     <system>    nested <machine>/<node>/<process rank [coords]>/<thread
//                 tid> </system>
//     <severity>  <matrix metric="i"> <row cnode="j"> t0 t1 t2 ...
//                 </row> </matrix>; all-zero rows and empty matrices are
//                 omitted </severity>
//   </cube>
//
// Identifiers in the file are the dense in-memory indices; the reader
// nevertheless accepts arbitrary ids and remaps them.
//
// Version 1.1 adds the by-reference form: <metaref digest="..."/> replaces
// the three metadata sections and points at a metadata blob
// (meta_format.hpp); severity ids are then the dense indices of the
// referenced metadata.  Reading one requires a MetadataResolver.
//
// Version 1.2 adds the columnar form: a <sevref digest="..." storage=.../>
// element replaces the <severity> section and points at a CUBESEV1
// severity blob (severity_format.hpp); the whole document is then a tiny
// envelope (attributes + two digests) and reading one requires a
// SeverityResolver as well — the repository's resolver mmaps the blob, so
// loads of columnar experiments are file-backed and stream-capable.
#pragma once

#include <iosfwd>
#include <string>

#include "io/meta_format.hpp"
#include "io/severity_format.hpp"
#include "model/experiment.hpp"

namespace cube {

/// Writes `experiment` as CUBE XML (inline metadata).
void write_cube_xml(const Experiment& experiment, std::ostream& out);
/// Writes to a file path; throws IoError if the file cannot be created.
void write_cube_xml_file(const Experiment& experiment,
                         const std::string& path);
/// Convenience: returns the XML document as a string.
[[nodiscard]] std::string to_cube_xml(const Experiment& experiment);

/// Writes the by-reference form (version 1.1): attributes + <metaref> +
/// severity.  The referenced metadata blob must be stored separately (the
/// repository does this).
void write_cube_xml_ref(const Experiment& experiment, std::ostream& out);
[[nodiscard]] std::string to_cube_xml_ref(const Experiment& experiment);

/// Writes the columnar envelope (version 1.2): attributes + <metaref> +
/// <sevref>.  Both referenced blobs (metadata and CUBESEV1 severity,
/// whose digest the caller passes) must be stored separately — the
/// repository does this for RepoFormat::Columnar entries.
void write_cube_xml_sev_ref(const Experiment& experiment,
                            std::uint64_t sev_digest, std::ostream& out);
[[nodiscard]] std::string to_cube_xml_sev_ref(const Experiment& experiment,
                                              std::uint64_t sev_digest);

/// Parses a CUBE XML document of any form.  Throws ParseError /
/// ValidationError on malformed input (including a by-reference document
/// without a resolver); the returned experiment has been validate()d.
/// Columnar documents additionally require `sev_resolver`; the store it
/// returns decides the storage kind, overriding `storage`.
[[nodiscard]] Experiment read_cube_xml(
    std::string_view xml, StorageKind storage = StorageKind::Dense,
    const MetadataResolver& resolver = {},
    const SeverityResolver& sev_resolver = {});
/// Reads from a file path; throws IoError if the file cannot be opened.
[[nodiscard]] Experiment read_cube_xml_file(
    const std::string& path, StorageKind storage = StorageKind::Dense,
    const MetadataResolver& resolver = {},
    const SeverityResolver& sev_resolver = {});

/// Reads an experiment file of either supported format, detected by
/// content (binary magic first, XML otherwise).  The command-line tools
/// use this so .cube and .cubx files mix freely.  By-reference files are
/// resolved through the given resolvers when supplied, else against the
/// meta/ and sev/ directories of the enclosing repository — the file's
/// own directory, or (for the sharded exp/ab/ layout) the nearest
/// ancestor that looks like a repository root.
[[nodiscard]] Experiment read_experiment_file(
    const std::string& path, StorageKind storage = StorageKind::Dense,
    const MetadataResolver& resolver = {},
    const SeverityResolver& sev_resolver = {});

}  // namespace cube
