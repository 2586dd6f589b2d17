#include "io/binary_codec.hpp"

#include <vector>

#include "common/error.hpp"

namespace cube::detail {

void BinaryDecoder::need(std::size_t n) const {
  if (pos_ + n > data_.size()) {
    throw CheckError("file.truncated",
                     "byte offset " + std::to_string(pos_),
                     "stream ends " + std::to_string(n) +
                         " byte(s) short of the next field");
  }
}

std::uint32_t BinaryDecoder::u32() {
  need(4);
  const std::uint32_t v = get_u32(data_.data() + pos_);
  pos_ += 4;
  return v;
}

std::uint64_t BinaryDecoder::u64() {
  need(8);
  const std::uint64_t v = get_u64(data_.data() + pos_);
  pos_ += 8;
  return v;
}

std::int64_t BinaryDecoder::i64() { return static_cast<std::int64_t>(u64()); }

double BinaryDecoder::f64() {
  need(8);
  double v = 0;
  std::memcpy(&v, data_.data() + pos_, 8);
  pos_ += 8;
  return v;
}

std::string BinaryDecoder::str() {
  const std::uint32_t len = u32();
  need(len);
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

namespace {

constexpr std::uint32_t kNoParentId = 0xFFFFFFFFu;

}  // namespace

void encode_metadata(BinaryEncoder& e, const Metadata& md) {
  e.u32(static_cast<std::uint32_t>(md.metrics().size()));
  for (const auto& m : md.metrics()) {
    e.u32(m->parent() != nullptr
              ? static_cast<std::uint32_t>(m->parent()->index())
              : kNoParentId);
    e.str(m->unique_name());
    e.str(m->display_name());
    e.u32(static_cast<std::uint32_t>(m->unit()));
    e.str(m->description());
  }

  e.u32(static_cast<std::uint32_t>(md.regions().size()));
  for (const auto& r : md.regions()) {
    e.str(r->name());
    e.str(r->module());
    e.i64(r->begin_line());
    e.i64(r->end_line());
    e.str(r->description());
  }

  e.u32(static_cast<std::uint32_t>(md.callsites().size()));
  for (const auto& cs : md.callsites()) {
    e.u32(static_cast<std::uint32_t>(cs->callee().index()));
    e.str(cs->file());
    e.i64(cs->line());
  }

  e.u32(static_cast<std::uint32_t>(md.cnodes().size()));
  for (const auto& c : md.cnodes()) {
    e.u32(c->parent() != nullptr
              ? static_cast<std::uint32_t>(c->parent()->index())
              : kNoParentId);
    e.u32(static_cast<std::uint32_t>(c->callsite().index()));
  }

  e.u32(static_cast<std::uint32_t>(md.machines().size()));
  for (const auto& m : md.machines()) e.str(m->name());
  e.u32(static_cast<std::uint32_t>(md.nodes().size()));
  for (const auto& n : md.nodes()) {
    e.u32(static_cast<std::uint32_t>(n->machine().index()));
    e.str(n->name());
  }
  e.u32(static_cast<std::uint32_t>(md.processes().size()));
  for (const auto& p : md.processes()) {
    e.u32(static_cast<std::uint32_t>(p->node().index()));
    e.str(p->name());
    e.i64(p->rank());
    const auto& coords = p->coords();
    e.u32(coords ? static_cast<std::uint32_t>(coords->size()) : 0);
    if (coords) {
      for (const long c : *coords) e.i64(c);
    }
  }
  e.u32(static_cast<std::uint32_t>(md.threads().size()));
  for (const auto& t : md.threads()) {
    e.u32(static_cast<std::uint32_t>(t->process().index()));
    e.str(t->name());
    e.i64(t->thread_id());
  }
}

std::unique_ptr<Metadata> decode_metadata(BinaryDecoder& d) {
  auto md = std::make_unique<Metadata>();

  const std::uint32_t num_metrics = d.u32();
  for (std::uint32_t i = 0; i < num_metrics; ++i) {
    const std::uint32_t parent = d.u32();
    std::string uniq = d.str();
    std::string disp = d.str();
    const auto unit = static_cast<Unit>(d.u32());
    std::string descr = d.str();
    const Metric* parent_ptr =
        parent == kNoParentId ? nullptr : md->metrics().at(parent).get();
    md->add_metric(parent_ptr, std::move(uniq), std::move(disp), unit,
                   std::move(descr));
  }

  const std::uint32_t num_regions = d.u32();
  for (std::uint32_t i = 0; i < num_regions; ++i) {
    std::string name = d.str();
    std::string mod = d.str();
    const long begin = static_cast<long>(d.i64());
    const long end = static_cast<long>(d.i64());
    std::string descr = d.str();
    md->add_region(std::move(name), std::move(mod), begin, end,
                   std::move(descr));
  }

  const std::uint32_t num_callsites = d.u32();
  for (std::uint32_t i = 0; i < num_callsites; ++i) {
    const std::uint32_t callee = d.u32();
    std::string file = d.str();
    const long line = static_cast<long>(d.i64());
    md->add_callsite(*md->regions().at(callee), std::move(file), line);
  }

  const std::uint32_t num_cnodes = d.u32();
  for (std::uint32_t i = 0; i < num_cnodes; ++i) {
    const std::uint32_t parent = d.u32();
    const std::uint32_t csite = d.u32();
    const Cnode* parent_ptr =
        parent == kNoParentId ? nullptr : md->cnodes().at(parent).get();
    md->add_cnode(parent_ptr, *md->callsites().at(csite));
  }

  const std::uint32_t num_machines = d.u32();
  for (std::uint32_t i = 0; i < num_machines; ++i) {
    md->add_machine(d.str());
  }
  const std::uint32_t num_nodes = d.u32();
  for (std::uint32_t i = 0; i < num_nodes; ++i) {
    const std::uint32_t machine = d.u32();
    md->add_node(*md->machines().at(machine), d.str());
  }
  const std::uint32_t num_processes = d.u32();
  for (std::uint32_t i = 0; i < num_processes; ++i) {
    const std::uint32_t node = d.u32();
    std::string name = d.str();
    const long rank = static_cast<long>(d.i64());
    Process& p = md->add_process(*md->nodes().at(node), std::move(name), rank);
    const std::uint32_t num_coords = d.u32();
    if (num_coords > 0) {
      std::vector<long> coords;
      coords.reserve(num_coords);
      for (std::uint32_t k = 0; k < num_coords; ++k) {
        coords.push_back(static_cast<long>(d.i64()));
      }
      p.set_coords(std::move(coords));
    }
  }
  const std::uint32_t num_threads = d.u32();
  for (std::uint32_t i = 0; i < num_threads; ++i) {
    const std::uint32_t process = d.u32();
    std::string name = d.str();
    const long tid = static_cast<long>(d.i64());
    md->add_thread(*md->processes().at(process), std::move(name), tid);
  }

  md->validate();
  return md;
}

}  // namespace cube::detail
