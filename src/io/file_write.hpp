// Whole-file writes shared by the repository and its segmented index.
#pragma once

#include <filesystem>
#include <string_view>

namespace cube {

/// Writes `bytes` to `path`, truncating it; throws IoError on failure.
void write_bytes(const std::filesystem::path& path, std::string_view bytes);

/// Atomically replaces `target` with `bytes`: writes <target>.tmp and
/// renames it over `target`, so a crash at any point leaves either the
/// old or the new file intact, never a torn one.  The temp file is
/// removed on failure; throws IoError.
void replace_file(const std::filesystem::path& target,
                  std::string_view bytes);

}  // namespace cube
