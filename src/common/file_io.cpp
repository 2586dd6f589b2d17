#include "common/file_io.hpp"

#include <fstream>
#include <string>
#include <system_error>

#include "common/error.hpp"

namespace cube {

std::string read_bytes(const std::filesystem::path& path,
                       std::uint64_t offset) {
  std::error_code ec;  // a directory or special file has no size: refused
  const std::uintmax_t end = std::filesystem::file_size(path, ec);
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) throw IoError("cannot open file '" + path.string() + "'");
  std::string bytes(end > offset ? end - offset : 0, '\0');
  in.seekg(static_cast<std::streamoff>(offset));
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

void write_bytes(const std::filesystem::path& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::trunc | std::ios::binary);
  if (!out) throw IoError("cannot create file '" + path.string() + "'");
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  out.flush();
  if (!out) throw IoError("write to '" + path.string() + "' failed");
}

void replace_file(const std::filesystem::path& target,
                  std::string_view bytes) {
  const std::filesystem::path temp = target.string() + ".tmp";
  std::error_code ec;
  try {
    write_bytes(temp, bytes);
  } catch (const IoError&) {
    std::filesystem::remove(temp, ec);
    throw;
  }
  std::filesystem::rename(temp, target, ec);
  if (ec) {
    const std::string reason = ec.message();
    std::filesystem::remove(temp, ec);
    throw IoError("cannot replace '" + target.string() + "': " + reason);
  }
}

}  // namespace cube
