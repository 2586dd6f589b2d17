#include "io/file_write.hpp"

#include <fstream>
#include <string>
#include <system_error>

#include "common/error.hpp"

namespace cube {

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
