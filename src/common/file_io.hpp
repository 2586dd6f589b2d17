// Whole-file reads and writes: the file formats, the repository and its
// segmented index, traces and reports all go through these.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

namespace cube {

/// The bytes of `path` from `offset` to its end, read into one buffer;
/// throws IoError if the file cannot be opened.
[[nodiscard]] std::string read_bytes(const std::filesystem::path& path,
                                     std::uint64_t offset = 0);

/// Writes `bytes` to `path`, truncating it; throws IoError on failure.
void write_bytes(const std::filesystem::path& path, std::string_view bytes);

/// Atomically replaces `target` with `bytes`: writes <target>.tmp and
/// renames it over `target`, so a crash at any point leaves either the
/// old or the new file intact, never a torn one.  The temp file is
/// removed on failure; throws IoError.
void replace_file(const std::filesystem::path& target,
                  std::string_view bytes);

}  // namespace cube
