// Internal little-endian codec shared by the binary formats (CUBEBIN1/2,
// CUBEMET1, CUBESEV1) and the cubed wire protocol.
//
// Not part of the public io API — the public entry points live in
// binary_format.hpp and meta_format.hpp.
#pragma once

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>

#include "model/metadata.hpp"

namespace cube::detail {

/// Little-endian stores into (and loads from) raw bytes.
inline void put_u32(char* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out[i] = static_cast<char>(v >> (8 * i));
}
inline void put_u64(char* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<char>(v >> (8 * i));
}
inline void put_f64(char* out, double v) {
  static_assert(sizeof(double) == 8);
  std::memcpy(out, &v, 8);
}
inline std::uint32_t get_u32(const char* in) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}
inline std::uint64_t get_u64(const char* in) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(in[i]))
         << (8 * i);
  }
  return v;
}

/// Appends fields to a caller-owned buffer; a caller that knows the size
/// reserves it up front, so the whole encode is one allocation.
class BinaryEncoder {
 public:
  explicit BinaryEncoder(std::string& out) : out_(out) {}

  void bytes(std::string_view b) { out_.append(b); }
  void u32(std::uint32_t v) {
    char buf[4];
    put_u32(buf, v);
    out_.append(buf, 4);
  }
  void u64(std::uint64_t v) {
    char buf[8];
    put_u64(buf, v);
    out_.append(buf, 8);
  }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) {
    char buf[8];
    put_f64(buf, v);
    out_.append(buf, 8);
  }
  void str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_.append(s);
  }

 private:
  std::string& out_;
};

class BinaryDecoder {
 public:
  explicit BinaryDecoder(std::string_view data) : data_(data) {}

  std::uint32_t u32();
  std::uint64_t u64();
  std::int64_t i64();
  double f64();
  std::string str();
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const;

  std::string_view data_;
  std::size_t pos_ = 0;
};

/// Writes the metadata sections (metrics, regions, call sites, cnodes,
/// machines, nodes, processes, threads) in the fixed CUBEBIN1 order.
void encode_metadata(BinaryEncoder& e, const Metadata& md);

/// Reads the metadata sections back; the returned metadata is validated
/// but NOT frozen (callers freeze or hand it to Experiment).
[[nodiscard]] std::unique_ptr<Metadata> decode_metadata(BinaryDecoder& d);

}  // namespace cube::detail
