#include "common/mmap_file.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/error.hpp"

namespace cube {

namespace {

[[nodiscard]] std::size_t page_size() noexcept {
  static const std::size_t size =
      static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return size;
}

}  // namespace

MappedFile::MappedFile(const std::filesystem::path& path) : path_(path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    throw Error("cannot open " + path.string() + " for mapping: " +
                std::strerror(errno));
  }
  struct stat st{};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    throw Error("cannot stat " + path.string() + ": " + std::strerror(err));
  }
  size_ = static_cast<std::size_t>(st.st_size);
  if (size_ > 0) {
    void* addr = ::mmap(nullptr, size_, PROT_READ, MAP_PRIVATE, fd, 0);
    if (addr == MAP_FAILED) {
      const int err = errno;
      ::close(fd);
      throw Error("cannot map " + path.string() + ": " + std::strerror(err));
    }
    data_ = static_cast<const std::byte*>(addr);
  }
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::byte*>(data_), size_);
  }
}

MappedFile::MappedFile(MappedFile&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      path_(std::move(other.path_)) {}

MappedFile& MappedFile::operator=(MappedFile&& other) noexcept {
  if (this != &other) {
    if (data_ != nullptr) {
      ::munmap(const_cast<std::byte*>(data_), size_);
    }
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    path_ = std::move(other.path_);
  }
  return *this;
}

void MappedFile::release_range(std::size_t offset,
                               std::size_t length) const noexcept {
  if (data_ == nullptr || offset >= size_) return;
  length = std::min(length, size_ - offset);
  // Shrink inward to page boundaries: releasing a partial page would
  // also drop bytes outside the requested range.
  const std::size_t page = page_size();
  const std::size_t begin = (offset + page - 1) / page * page;
  const std::size_t end = (offset + length) / page * page;
  if (end <= begin) return;
  ::madvise(const_cast<std::byte*>(data_) + begin, end - begin, MADV_DONTNEED);
}

}  // namespace cube
