// The workloads: seeded generators, daemon configuration, oracles,
// and the closed-loop client sessions (README.md explains each choice).
#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <unordered_set>

#include "common/digest.hpp"
#include "common/rng.hpp"
#include "io/binary_format.hpp"
#include "io/meta_format.hpp"
#include "model/system_factory.hpp"
#include "perfbench.hpp"
#include "query/engine.hpp"

namespace perfbench {

namespace fs = std::filesystem;
using cube::Experiment;
using cube::ExperimentRepository;
using cube::RepoFormat;
using cube::StorageKind;
using namespace cube::server;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::vector<std::vector<double>> by_round(const std::vector<double>& values,
                                          const std::vector<double>& at_s,
                                          double seconds) {
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(seconds / kRoundSeconds)));
  const double length = seconds / static_cast<double>(n);
  std::vector<std::vector<double>> rounds(n);
  for (std::size_t i = 0; i < values.size(); ++i) {
    const auto k = static_cast<std::size_t>(std::max(0.0, at_s[i] / length));
    rounds[std::min(k, n - 1)].push_back(values[i]);
  }
  return rounds;
}

double median_of_groups(const std::vector<std::vector<double>>& groups,
                        double q) {
  std::vector<double> per_group;
  for (const std::vector<double>& g : groups) {
    if (!g.empty()) per_group.push_back(quantile(g, q));
  }
  return quantile(per_group, 0.5);
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::ColdSeries:
      return "cold_series";
    case Kind::IngestLookup:
      return "ingest_lookup";
  }
  return "?";
}

namespace {

// ---- generation -----------------------------------------------------------

/// Shape of one generated run: a metric forest of chains of depth 4, a
/// call tree of the given fan-out, one thread per process.  Runs that share
/// (metric_prefix, fanout) share their metadata digest, like repeated runs
/// of one binary; a different fan-out gives a differently shaped call tree
/// over the same regions, which integrates through remapping.
struct Shape {
  std::size_t metrics = 16;
  std::size_t cnodes = 128;
  std::size_t threads = 16;
  std::size_t fanout = 4;
  double fill = 0.3;
  std::string metric_prefix = "m";
  StorageKind storage = StorageKind::Dense;
};

/// `prefix` followed by `i`: run ids and region names.
std::string numbered(const char* prefix, std::uint64_t i) {
  std::string out = prefix;
  out += std::to_string(i);
  return out;
}

Experiment make_run(const Shape& shape, const std::string& name,
                    std::uint64_t seed) {
  auto md = std::make_unique<cube::Metadata>();
  const cube::Metric* parent = nullptr;
  for (std::size_t i = 0; i < shape.metrics; ++i) {
    if (i % 4 == 0) parent = nullptr;
    const std::string metric = shape.metric_prefix + std::to_string(i);
    parent = &md->add_metric(parent, metric, metric, cube::Unit::Seconds);
  }
  // Region k covers lines [2k+1, 2k+2]: disjoint ranges keep the metadata
  // valid through file round trips.
  const cube::Region& main_region = md->add_region("main", "app.c", 1, 2);
  const cube::Cnode* root = &md->add_cnode_for_region(nullptr, main_region);
  std::size_t created = 1;
  const std::function<void(const cube::Cnode*, std::size_t)> grow =
      [&](const cube::Cnode* p, std::size_t depth) {
        if (depth >= 8) return;
        for (std::size_t k = 0; k < shape.fanout && created < shape.cnodes;
             ++k) {
          const long line = 2 * static_cast<long>(created) + 1;
          const cube::Region& r = md->add_region(
              numbered("f", created), "app.c", line, line + 1);
          ++created;
          grow(&md->add_cnode_for_region(p, r), depth + 1);
        }
      };
  grow(root, 0);
  cube::build_regular_system(*md, "machine", 1,
                             static_cast<int>(shape.threads));

  Experiment e(std::move(md), shape.storage);
  e.set_name(name);
  cube::SplitMix64 rng(seed);
  const cube::Metadata& m = e.metadata();
  for (cube::MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (cube::CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (cube::ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        if (rng.uniform() < shape.fill) {
          e.severity().set(mi, ci, ti, rng.uniform(0.0, 10.0));
        }
      }
    }
  }
  return e;
}

/// Folds an experiment's content (attributes, metadata digest, every cell's
/// bits) into `d`.
void digest_experiment(cube::Fnv1a& d, const Experiment& e) {
  for (const auto& [key, value] : e.attributes()) d.update(key).update(value);
  d.update(e.metadata().digest());
  const cube::Metadata& m = e.metadata();
  for (cube::MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (cube::CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (cube::ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        d.update(std::bit_cast<std::uint64_t>(e.severity().get(mi, ci, ti)));
      }
    }
  }
}

std::string store_timed(ExperimentRepository& repo, const Experiment& e,
                        RepoFormat format, std::vector<double>& store_ms) {
  const auto t0 = Clock::now();
  std::string id = repo.store(e, format);
  store_ms.push_back(ms_since(t0));
  return id;
}

/// First differing cell of two experiments over equal metadata, compared
/// bit for bit; empty when identical.
std::string diff_bits(const Experiment& a, const Experiment& b) {
  if (a.metadata().digest() != b.metadata().digest()) {
    return "metadata digest differs";
  }
  const cube::Metadata& m = a.metadata();
  for (cube::MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (cube::CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (cube::ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        const double x = a.severity().get(mi, ci, ti);
        const double y = b.severity().get(mi, ci, ti);
        if (std::bit_cast<std::uint64_t>(x) !=
            std::bit_cast<std::uint64_t>(y)) {
          return "cell (" + std::to_string(mi) + "," + std::to_string(ci) +
                 "," + std::to_string(ti) + ") " + std::to_string(x) +
                 " != " + std::to_string(y);
        }
      }
    }
  }
  return {};
}

/// Repository ids of the leaf operands of a canonical expression
/// ("id:<id>@<digest>" leaves, docs/QUERY.md).
std::set<std::string> canonical_ids(const std::string& canonical) {
  std::set<std::string> ids;
  for (std::size_t at = canonical.find("id:"); at != std::string::npos;
       at = canonical.find("id:", at)) {
    const std::size_t end = canonical.find('@', at);
    if (end == std::string::npos) break;
    ids.insert(canonical.substr(at + 3, end - at - 3));
    at = end;
  }
  return ids;
}

bool fail(const Issued& issued, const std::string& why) {
  std::fprintf(stderr, "MISMATCH: %s: %s\n", issued.text.c_str(),
               why.c_str());
  return false;
}

// ---- cold_series ----------------------------------------------------------

/// A 64-run series mixing storage (dense, sparse at low fill, columnar)
/// and metadata (identical, or a differently shaped call tree), plus 8
/// runs over a disjoint metric set for merge.  Every query is distinct, so
/// every root misses the result cache.
class ColdSeries final : public Scenario {
 public:
  explicit ColdSeries(std::uint64_t seed) : seed_(seed) {
    cube::SplitMix64 rng(seed ^ 0xc01dull);
    std::unordered_set<std::string> seen;
    cube::Fnv1a d;
    auto subset = [&] {
      std::vector<int> picks;
      while (picks.size() < kSubset) {
        const int i = static_cast<int>(rng.below(kSeries));
        if (std::find(picks.begin(), picks.end(), i) == picks.end()) {
          picks.push_back(i);
        }
      }
      std::sort(picks.begin(), picks.end());
      std::string list;
      for (int i : picks) {
        if (!list.empty()) list += ", ";
        list += numbered("s", i);
      }
      return list;
    };
    static constexpr const char* kReduce[] = {"mean", "min", "max"};
    while (stream_.size() < kStream) {
      const std::uint64_t pick = rng.below(10);
      std::string text;
      if (pick < 6) {
        text = std::string(kReduce[pick % 3]) + "(" + subset() + ")";
      } else if (pick < 9) {
        text = "diff(mean(" + subset() + "), mean(" + subset() + "))";
      } else {
        text = "merge(s" + std::to_string(rng.below(kSeries)) + ", hw" +
               std::to_string(rng.below(kCounterRuns)) + ")";
      }
      if (seen.insert(text).second) {
        d.update(text);
        stream_.push_back(std::move(text));
      }
    }
    stream_digest_ = d.value();
  }

  void populate(const fs::path& dir, std::vector<double>& store_ms) override {
    ExperimentRepository repo(dir);
    cube::Fnv1a d;
    for (int i = 0; i < kSeries; ++i) {
      Shape shape;
      shape.cnodes = 64;
      shape.fanout = i % 4 == 3 ? 3 : 4;
      RepoFormat format = RepoFormat::Binary;
      if (i % 3 == 1) {
        shape.storage = StorageKind::Sparse;
        shape.fill = 0.02;
      } else if (i % 3 == 2) {
        format = RepoFormat::Columnar;
      }
      const Experiment e =
          make_run(shape, numbered("s", i), seed_ * 1000 + i);
      digest_experiment(d, e);
      (void)store_timed(repo, e, format, store_ms);
    }
    for (int i = 0; i < kCounterRuns; ++i) {
      Shape shape;
      shape.cnodes = 64;
      shape.metrics = 4;
      shape.metric_prefix = "hw";
      const Experiment e =
          make_run(shape, numbered("hw", i), seed_ * 1000 + 500 + i);
      digest_experiment(d, e);
      (void)store_timed(repo, e, RepoFormat::Binary, store_ms);
    }
    repo_digest_ = d.value();
    std::lock_guard<std::mutex> lock(mutex_);
    samples_.clear();
  }

  void configure(ServiceConfig& service, ServerConfig&) const override {
    // No answer is asked for twice, so cached results are never read back.
    // A budget that fills within the first seconds makes peak RSS reflect
    // the working set, not how many queries a run happened to complete.
    service.cache_capacity_bytes = 64ull << 20;
  }

  Issued issue(std::size_t client, std::size_t index) override {
    return Issued{stream_[(client + kClients * index) % stream_.size()], {}};
  }

  bool check(const Issued& issued, const ClientResult& result) override {
    if (result.served != Served::Computed) {
      return fail(issued, "root was not a result-cache miss");
    }
    // A seeded sample (plus any reply the caller deliberately corrupted)
    // is re-evaluated in-process after the timed phase.
    const bool sampled =
        cube::fnv1a(issued.text) % kSampleEvery == seed_ % kSampleEvery;
    if (sampled || issued.corrupted) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (samples_.size() < kMaxSamples || issued.corrupted) {
        samples_.emplace_back(issued.text, result.experiment.clone());
      }
    }
    return true;
  }

  bool verify_after(const fs::path& dir) override {
    ExperimentRepository repo(dir);
    cube::query::QueryOptions options;
    options.threads = 1;
    options.use_cache = false;
    options.store_derived = false;
    cube::query::QueryEngine engine(repo, options);
    std::lock_guard<std::mutex> lock(mutex_);
    bool ok = true;
    for (const auto& [text, got] : samples_) {
      const cube::query::QueryResult want = engine.run(text);
      const std::string why = diff_bits(got, want.experiment);
      if (!why.empty()) ok = fail(Issued{text, {}}, why);
    }
    std::printf("# cold_series oracle: %zu sampled replies re-evaluated "
                "in-process\n",
                samples_.size());
    return ok;
  }

  std::uint64_t repo_digest() const override { return repo_digest_; }
  std::uint64_t stream_digest() const override { return stream_digest_; }

 private:
  static constexpr int kSeries = 64;
  static constexpr int kCounterRuns = 8;
  static constexpr std::size_t kSubset = 8;
  static constexpr std::size_t kStream = 40000;
  static constexpr std::uint64_t kSampleEvery = 16;
  static constexpr std::size_t kMaxSamples = 32;

  std::uint64_t seed_;
  std::vector<std::string> stream_;
  std::uint64_t repo_digest_ = 0;
  std::uint64_t stream_digest_ = 0;
  std::mutex mutex_;
  std::vector<std::pair<std::string, Experiment>> samples_;
};

// ---- ingest_lookup --------------------------------------------------------

/// 10 000 tiny entries with a `batch` attribute; two clients look entries
/// up while one writer appends new runs on a fixed schedule through its
/// own repository handle and refreshes the service after each store.
class IngestLookup final : public Scenario {
 public:
  explicit IngestLookup(std::uint64_t seed) : seed_(seed) {
    cube::SplitMix64 rng(seed ^ 0x1a6e57ull);
    cube::Fnv1a d;
    for (std::size_t i = 0; i < kStream; ++i) {
      Choice c{rng.below(2) == 0, rng.below(kEntries), rng.below(kBatches)};
      d.update(c.diff ? 1u : 0u).update(c.entry).update(c.batch);
      choices_.push_back(c);
    }
    stream_digest_ = d.value();
  }

  void populate(const fs::path& dir, std::vector<double>& store_ms) override {
    writer_repo_.reset();
    writer_repo_ = std::make_unique<ExperimentRepository>(dir);
    std::lock_guard<std::mutex> lock(mutex_);
    by_batch_.assign(kBatches, {});
    latest_.clear();
    cube::Fnv1a d;
    for (std::uint64_t i = 0; i < kEntries; ++i) {
      const Experiment e = make_entry(numbered("e", i), i % kBatches,
                                      seed_ * 100000 + i);
      digest_experiment(d, e);
      by_batch_[i % kBatches].push_back(
          store_timed(*writer_repo_, e, RepoFormat::Binary, store_ms));
    }
    repo_digest_ = d.value();
  }

  void configure(ServiceConfig& service,
                 ServerConfig& server) const override {
    // Only one process may store into a repository (docs/STORAGE.md): the
    // writer owns the stores, so the daemon must not persist results.
    service.store_derived = false;
    // The writer refreshes after every store; the timer stays off.
    server.refresh_interval_ms = 0;
  }

  Issued issue(std::size_t client, std::size_t index) override {
    const Choice& c = choices_[(client + kClients * index) % choices_.size()];
    const std::string a = numbered("e", c.entry);
    std::lock_guard<std::mutex> lock(mutex_);
    if (c.diff) {
      // Against the newest published run when there is one: the answer
      // must resolve it.
      const std::string b =
          latest_.empty() ? numbered("e", (c.entry + 1) % kEntries)
                          : latest_;
      return Issued{"diff(id(" + a + "), id(" + b + "))", {a, b}};
    }
    Issued out{"mean(attr(batch=" + std::to_string(c.batch) + "), id(" + a +
                   "))",
               by_batch_[c.batch]};
    out.expect_ids.push_back(a);
    return out;
  }

  bool check(const Issued& issued, const ClientResult& result) override {
    const std::set<std::string> ids = canonical_ids(result.canonical);
    for (const std::string& id : issued.expect_ids) {
      if (ids.count(id) == 0) {
        return fail(issued, "answer does not resolve " + id +
                                ", stored before the query was sent");
      }
    }
    return true;
  }

  void start_background(AnalysisService& service) override {
    stop_ = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      stores_.clear();
      refresh_ms_.clear();
      max_late_ms_ = 0.0;
    }
    writer_ = std::thread([this, &service] { write_loop(service); });
  }

  void stop_background() override {
    stop_ = true;
    if (writer_.joinable()) writer_.join();
  }

  std::vector<std::pair<double, double>> background_stores() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return stores_;
  }
  std::vector<double> background_refresh_ms() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return refresh_ms_;
  }
  double background_max_late_ms() const override {
    std::lock_guard<std::mutex> lock(mutex_);
    return max_late_ms_;
  }

  std::uint64_t repo_digest() const override { return repo_digest_; }
  std::uint64_t stream_digest() const override { return stream_digest_; }

  ~IngestLookup() override { stop_background(); }

 private:
  static constexpr std::uint64_t kEntries = 10000;
  static constexpr std::uint64_t kBatches = 500;
  static constexpr std::size_t kStream = 200000;
  /// Open-loop store schedule of the writer.
  static constexpr std::chrono::milliseconds kStorePeriod{25};

  struct Choice {
    bool diff;
    std::uint64_t entry;
    std::uint64_t batch;
  };

  static Experiment make_entry(const std::string& name, std::uint64_t batch,
                               std::uint64_t seed) {
    Shape shape;
    shape.metrics = 2;
    shape.cnodes = 8;
    shape.threads = 2;
    shape.fill = 1.0;
    Experiment e = make_run(shape, name, seed);
    e.set_attribute("batch", std::to_string(batch));
    return e;
  }

  void write_loop(AnalysisService& service) {
    // Each phase restarts the writer's sequence so the stored runs depend
    // only on the seed and the phase's length.
    cube::SplitMix64 rng(seed_ ^ 0x3717e5ull);
    const auto start = Clock::now();
    for (std::uint64_t j = 0; !stop_; ++j) {
      const std::uint64_t batch = rng.below(kBatches);
      const Experiment e =
          make_entry(numbered("n", next_id_++), batch, rng.next());
      const auto due = start + j * kStorePeriod;
      std::this_thread::sleep_until(due);
      if (stop_) break;
      const double late = ms_since(due);
      const std::string id = writer_repo_->store(e, RepoFormat::Binary);
      const double store = ms_since(due);
      const auto r0 = Clock::now();
      (void)service.refresh();
      const double refresh = ms_since(r0);
      std::lock_guard<std::mutex> lock(mutex_);
      by_batch_[batch].push_back(id);
      latest_ = id;
      stores_.emplace_back(
          std::chrono::duration<double>(due - start).count(), store);
      refresh_ms_.push_back(refresh);
      max_late_ms_ = std::max(max_late_ms_, late);
    }
  }

  std::uint64_t seed_;
  std::vector<Choice> choices_;
  std::uint64_t repo_digest_ = 0;
  std::uint64_t stream_digest_ = 0;
  std::unique_ptr<ExperimentRepository> writer_repo_;
  std::uint64_t next_id_ = 0;

  mutable std::mutex mutex_;
  std::vector<std::vector<std::string>> by_batch_;  ///< published ids
  std::string latest_;
  std::vector<std::pair<double, double>> stores_;  ///< (due s, ms)
  std::vector<double> refresh_ms_;
  double max_late_ms_ = 0.0;

  std::atomic<bool> stop_{false};
  std::thread writer_;
};

}  // namespace

std::unique_ptr<Scenario> make_scenario(Kind kind, std::uint64_t seed) {
  switch (kind) {
    case Kind::ColdSeries:
      return std::make_unique<ColdSeries>(seed);
    case Kind::IngestLookup:
      return std::make_unique<IngestLookup>(seed);
  }
  return nullptr;
}

// ---- the client sessions ----------------------------------------------------

void LoadStats::merge(const LoadStats& other) {
  auto append = [](std::vector<double>& to, const std::vector<double>& v) {
    to.insert(to.end(), v.begin(), v.end());
  };
  append(rt_ms, other.rt_ms);
  append(done_s, other.done_s);
  append(raw_ms, other.raw_ms);
  append(decode_ms, other.decode_ms);
  append(server_ms, other.server_ms);
  result_bytes += other.result_bytes;
  meta_shipped += other.meta_shipped;
  attempted += other.attempted;
  errors += other.errors;
  mismatches += other.mismatches;
  wall_s += other.wall_s;
  computed_texts.insert(computed_texts.end(), other.computed_texts.begin(),
                        other.computed_texts.end());
}

namespace {

/// query_raw plus the decode CubeClient::query performs, timed apart.
ClientResult traced_query(
    CubeClient& client, const std::string& text,
    std::map<std::uint64_t, std::shared_ptr<const cube::Metadata>>& metas,
    ResultPayload& raw, double& raw_ms, double& decode_ms) {
  const auto t0 = Clock::now();
  raw = client.query_raw(text);
  raw_ms = ms_since(t0);
  const auto t1 = Clock::now();
  if (!raw.meta_blob.empty()) {
    std::shared_ptr<const cube::Metadata> md =
        cube::read_cube_meta(raw.meta_blob);
    metas[md->digest()] = std::move(md);
  }
  ClientResult out{
      cube::read_cube_binary(raw.body, StorageKind::Dense,
                             [&](std::uint64_t digest) {
                               auto it = metas.find(digest);
                               return it == metas.end() ? nullptr
                                                        : it->second;
                             }),
      raw.served,
      raw.canonical,
      raw.server_ms,
      raw.meta_blob.size() + raw.body.size() + raw.canonical.size(),
      !raw.meta_blob.empty()};
  decode_ms = ms_since(t1);
  return out;
}

}  // namespace

LoadStats run_load(Scenario& scenario, AnalysisService& service,
                   const ClientConfig& config, double seconds, bool traced,
                   std::vector<std::size_t>& cursor, long corrupt_reply) {
  LoadStats total;
  std::mutex total_mutex;
  scenario.start_background(service);
  const auto start = Clock::now();
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));

  auto client_loop = [&](std::size_t c) {
    LoadStats local;
    std::size_t index = cursor[c];
    while (Clock::now() < end) {
      try {
        CubeClient client(config);
        std::map<std::uint64_t, std::shared_ptr<const cube::Metadata>> metas;
        while (Clock::now() < end) {
          Issued issued = scenario.issue(c, index++);
          ++local.attempted;
          try {
            ResultPayload raw;
            double raw_ms = 0.0;
            double decode_ms = 0.0;
            double rt_ms = 0.0;
            const auto t0 = Clock::now();
            ClientResult result =
                traced ? traced_query(client, issued.text, metas, raw, raw_ms,
                                      decode_ms)
                       : client.query(issued.text);
            rt_ms = traced ? raw_ms + decode_ms : ms_since(t0);
            local.rt_ms.push_back(rt_ms);
            local.done_s.push_back(ms_since(start) / 1000.0);
            local.server_ms.push_back(result.server_ms);
            local.result_bytes += static_cast<double>(result.wire_bytes);
            if (result.meta_shipped) ++local.meta_shipped;
            if (traced) {
              local.raw_ms.push_back(raw_ms);
              local.decode_ms.push_back(decode_ms);
              if (result.served == Served::Computed) {
                local.computed_texts.push_back(issued.text);
              }
            }
            if (c == 0 && corrupt_reply >= 0 &&
                local.attempted ==
                    static_cast<std::uint64_t>(corrupt_reply) + 1) {
              // The deliberately corrupted reply: one cell and the
              // operand list change, as a wrong answer would.
              cube::SeverityStore& sev = result.experiment.severity();
              sev.set(0, 0, 0, sev.get(0, 0, 0) + 1.0);
              result.canonical.clear();
              issued.corrupted = true;
            }
            if (!scenario.check(issued, result)) {
              ++local.mismatches;
            }
          } catch (const BusyError&) {
            ++local.errors;
          } catch (const RemoteError& e) {
            ++local.errors;
            std::fprintf(stderr, "error: %s: %s\n", issued.text.c_str(),
                         e.what());
          }
        }
      } catch (const std::exception& e) {
        // The session broke (or could not connect): the query in flight
        // failed; the loop reconnects.
        ++local.errors;
        std::fprintf(stderr, "session error: %s\n", e.what());
      }
    }
    std::lock_guard<std::mutex> lock(total_mutex);
    cursor[c] = index;
    total.merge(local);
  };

  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c) {
    threads.emplace_back(client_loop, c);
  }
  for (std::thread& t : threads) t.join();
  total.wall_s = ms_since(start) / 1000.0;
  scenario.stop_background();
  return total;
}

}  // namespace perfbench
