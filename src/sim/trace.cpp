#include "sim/trace.hpp"

#include <cstring>

#include "common/error.hpp"
#include "common/file_io.hpp"

namespace cube::sim {

namespace {

constexpr char kMagic[8] = {'E', 'P', 'I', 'L', 'O', 'G', 'S', '1'};

void put_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}
void put_i32(std::string& out, std::int32_t v) {
  put_u32(out, static_cast<std::uint32_t>(v));
}
void put_f64(std::string& out, double v) {
  char buf[8];
  std::memcpy(buf, &v, 8);
  out.append(buf, 8);
}
void put_str(std::string& out, const std::string& s) {
  put_u32(out, static_cast<std::uint32_t>(s.size()));
  out += s;
}

class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  std::uint32_t u32() {
    need(4);
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(
               static_cast<unsigned char>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }
  std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  std::uint8_t u8() {
    need(1);
    const auto v = static_cast<std::uint8_t>(data_[pos_]);
    ++pos_;
    return v;
  }
  double f64() {
    need(8);
    double v = 0;
    std::memcpy(&v, data_.data() + pos_, 8);
    pos_ += 8;
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    need(n);
    std::string s(data_.substr(pos_, n));
    pos_ += n;
    return s;
  }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

 private:
  void need(std::size_t n) const {
    if (pos_ + n > data_.size()) throw Error("truncated trace data");
  }
  std::string_view data_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string serialize_trace(const Trace& trace) {
  std::string out;
  out.append(kMagic, sizeof kMagic);

  put_u32(out, static_cast<std::uint32_t>(trace.regions.size()));
  for (const RegionInfo& r : trace.regions.all()) {
    put_str(out, r.name);
    put_str(out, r.file);
    put_i32(out, static_cast<std::int32_t>(r.begin_line));
    put_i32(out, static_cast<std::int32_t>(r.end_line));
  }

  put_str(out, trace.cluster.machine_name);
  put_i32(out, trace.cluster.num_nodes);
  put_i32(out, trace.cluster.procs_per_node);
  put_i32(out, trace.cluster.threads_per_proc);
  put_f64(out, trace.eager_threshold);

  put_u32(out, static_cast<std::uint32_t>(trace.counter_names.size()));
  for (const std::string& name : trace.counter_names) put_str(out, name);

  put_u32(out, static_cast<std::uint32_t>(trace.events.size()));
  for (const TraceEvent& e : trace.events) {
    out.push_back(static_cast<char>(e.type));
    put_i32(out, e.rank);
    put_f64(out, e.time);
    put_u32(out, e.region);
    put_i32(out, e.peer);
    put_i32(out, e.tag);
    put_f64(out, e.bytes);
    put_u32(out, e.coll_instance);
    out.push_back(static_cast<char>(e.coll));
    put_u32(out, static_cast<std::uint32_t>(e.counters.size()));
    for (const double c : e.counters) put_f64(out, c);
    put_u32(out, static_cast<std::uint32_t>(e.thread_seconds.size()));
    for (const double c : e.thread_seconds) put_f64(out, c);
  }
  return out;
}

std::size_t Trace::byte_size() const { return serialize_trace(*this).size(); }

Trace deserialize_trace(std::string_view data) {
  if (data.size() < sizeof kMagic ||
      std::memcmp(data.data(), kMagic, sizeof kMagic) != 0) {
    throw Error("not a simulator trace (bad magic)");
  }
  Reader r(data.substr(sizeof kMagic));
  Trace trace;

  const std::uint32_t num_regions = r.u32();
  for (std::uint32_t i = 0; i < num_regions; ++i) {
    std::string name = r.str();
    std::string file = r.str();
    const long begin = r.i32();
    const long end = r.i32();
    trace.regions.intern(name, file, begin, end);
  }

  trace.cluster.machine_name = r.str();
  trace.cluster.num_nodes = r.i32();
  trace.cluster.procs_per_node = r.i32();
  trace.cluster.threads_per_proc = r.i32();
  trace.eager_threshold = r.f64();

  const std::uint32_t num_counters = r.u32();
  for (std::uint32_t i = 0; i < num_counters; ++i) {
    trace.counter_names.push_back(r.str());
  }

  const std::uint32_t num_events = r.u32();
  trace.events.reserve(num_events);
  for (std::uint32_t i = 0; i < num_events; ++i) {
    TraceEvent e;
    e.type = static_cast<EventType>(r.u8());
    e.rank = r.i32();
    e.time = r.f64();
    e.region = r.u32();
    e.peer = r.i32();
    e.tag = r.i32();
    e.bytes = r.f64();
    e.coll_instance = r.u32();
    e.coll = static_cast<CollKind>(r.u8());
    const std::uint32_t nc = r.u32();
    e.counters.reserve(nc);
    for (std::uint32_t k = 0; k < nc; ++k) e.counters.push_back(r.f64());
    const std::uint32_t nt = r.u32();
    e.thread_seconds.reserve(nt);
    for (std::uint32_t k = 0; k < nt; ++k) {
      e.thread_seconds.push_back(r.f64());
    }
    trace.events.push_back(std::move(e));
  }
  if (!r.done()) throw Error("trailing bytes after trace stream");
  return trace;
}

void write_trace_file(const Trace& trace, const std::string& path) {
  write_bytes(path, serialize_trace(trace));
}

Trace read_trace_file(const std::string& path) {
  return deserialize_trace(read_bytes(path));
}

}  // namespace cube::sim
