// Repository-level lint: invariants of an experiment repository as a whole.
//
// Beyond per-file validity (file_lint.hpp) a repository makes promises of
// its own: the index lists each id once and every listed file exists and
// still hashes to the digest its index record carries, all referenced
// metadata blobs are present, correctly filed, and reachable, no blob is
// orphaned, and cached query results still describe operands that exist
// in their recorded state.  This pass checks all of them and
// then lints every entry's file through the repository's own resolver, so
// blob-backed entries share parsed metadata exactly as real loads do.
#pragma once

#include <cstdint>
#include <filesystem>

#include "lint/lint.hpp"

namespace cube::lint {

/// Lints the repository at `directory`: index integrity, entry files,
/// metadata blobs, orphans, and cached-result staleness.  Diagnostics are
/// prefixed with the entry id (or blob file name) they concern.
void lint_repository(const std::filesystem::path& directory,
                     DiagnosticSink& sink, const Options& options = {});

/// Re-hashes the indexed file at `path` and throws ValidationError naming
/// rule repo.digest-mismatch unless it still hashes to `recorded`, the
/// digest its index record carries — the per-load form of that rule, for
/// the query engine's validate_loads.  Throws IoError if unreadable.
void require_digest(const std::filesystem::path& path,
                    std::uint64_t recorded);

}  // namespace cube::lint
