#include "obs/report.hpp"

#include <algorithm>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>
#include <string>

#include "obs/json_export.hpp"

namespace cube::obs {

namespace {

/// Aggregated node of one thread's call tree: spans with the same path
/// collapse into visit counts and summed times.
struct TreeNode {
  const char* name = nullptr;
  std::uint64_t visits = 0;
  std::int64_t incl_ns = 0;
  std::int64_t excl_ns = 0;
  std::map<std::string, std::size_t> children;  ///< name -> node index
};

/// Builds the aggregated call tree of one thread snapshot.  Index 0 is a
/// synthetic root whose children are the thread's top-level spans.
std::vector<TreeNode> build_tree(const ThreadSnapshot& snap) {
  std::vector<TreeNode> nodes(1);
  // Maps a span record index to its aggregated node.
  std::vector<std::size_t> node_of(snap.spans.size(), 0);
  // Self time: inclusive minus the sum of direct children's inclusive.
  std::vector<std::int64_t> child_ns(snap.spans.size(), 0);
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const SpanRecord& rec = snap.spans[i];
    const std::size_t parent =
        rec.parent == kNoParent ? 0 : node_of[rec.parent];
    const auto [it, inserted] =
        nodes[parent].children.emplace(rec.name, nodes.size());
    if (inserted) {
      nodes.emplace_back();
      nodes.back().name = rec.name;
    }
    const std::size_t node = it->second;
    node_of[i] = node;
    const std::int64_t dur = rec.end_ns - rec.start_ns;
    nodes[node].visits += 1;
    nodes[node].incl_ns += dur;
    if (rec.parent != kNoParent) child_ns[rec.parent] += dur;
  }
  for (std::size_t i = 0; i < snap.spans.size(); ++i) {
    const std::int64_t dur = snap.spans[i].end_ns - snap.spans[i].start_ns;
    nodes[node_of[i]].excl_ns += std::max<std::int64_t>(0, dur - child_ns[i]);
  }
  return nodes;
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

void print_tree(std::ostream& out, const std::vector<TreeNode>& nodes,
                std::size_t index, int depth) {
  if (index != 0) {
    const TreeNode& n = nodes[index];
    out << "  " << std::string(static_cast<std::size_t>(depth) * 2, ' ')
        << n.name << "  x" << n.visits << "  incl " << std::fixed
        << std::setprecision(3) << ms(n.incl_ns) << " ms, excl "
        << ms(n.excl_ns) << " ms\n";
  }
  for (const auto& [name, child] : nodes[index].children) {
    print_tree(out, nodes, child, index == 0 ? depth : depth + 1);
  }
}

}  // namespace

void write_text_report(std::ostream& out,
                       const std::vector<ThreadSnapshot>& threads,
                       const MetricsRegistry& registry) {
  out << "== self-profile: spans ==\n";
  bool any = false;
  for (const ThreadSnapshot& snap : threads) {
    if (snap.spans.empty()) continue;
    any = true;
    out << "thread " << snap.thread_name << " (" << snap.spans.size()
        << " spans)\n";
    print_tree(out, build_tree(snap), 0, 0);
  }
  if (!any) out << "  (no spans recorded; was tracing enabled?)\n";
  out << "== self-profile: metrics ==\n";
  write_metrics_report(out, registry);
}

void write_text_report(std::ostream& out) {
  write_text_report(out, Tracer::instance().snapshot(),
                    MetricsRegistry::global());
}

void write_chrome_trace(std::ostream& out,
                        const std::vector<ThreadSnapshot>& threads) {
  // Rebase timestamps so the trace starts near zero (steady_clock's epoch
  // is arbitrary and its raw nanosecond counts overflow the viewer's
  // double microseconds).
  std::int64_t base = 0;
  bool have_base = false;
  for (const ThreadSnapshot& snap : threads) {
    for (const SpanRecord& rec : snap.spans) {
      if (!have_base || rec.start_ns < base) {
        base = rec.start_ns;
        have_base = true;
      }
    }
  }

  out << "{\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (std::size_t tid = 0; tid < threads.size(); ++tid) {
    const ThreadSnapshot& snap = threads[tid];
    sep();
    out << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":";
    write_json_string(out, snap.thread_name);
    out << "}}";
    for (const SpanRecord& rec : snap.spans) {
      sep();
      out << "{\"ph\":\"X\",\"pid\":1,\"tid\":" << tid << ",\"name\":";
      write_json_string(out, rec.name != nullptr ? rec.name : "");
      out << ",\"cat\":\"cube\",\"ts\":" << std::fixed
          << std::setprecision(3)
          << static_cast<double>(rec.start_ns - base) / 1e3
          << ",\"dur\":" << static_cast<double>(rec.end_ns - rec.start_ns) / 1e3;
      if (rec.note != nullptr || rec.tag != 0) {
        out << ",\"args\":{";
        bool first_arg = true;
        if (rec.note != nullptr) {
          out << "\"note\":";
          write_json_string(out, rec.note);
          first_arg = false;
        }
        if (rec.tag != 0) {
          if (!first_arg) out << ",";
          out << "\"tag\":" << rec.tag;
        }
        out << "}";
      }
      out << "}";
    }
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

void write_chrome_trace(std::ostream& out) {
  write_chrome_trace(out, Tracer::instance().snapshot());
}

}  // namespace cube::obs
