// Randomized equivalence suite for the severity kernels: every operator,
// over dense/sparse operand combinations at fill rates {100 %, 10 %, 1 %}
// and thread counts {1, 4}, must produce results BIT-IDENTICAL to the
// per-cell oracle (tests/oracle).  See docs/KERNELS.md for the ordering
// contract that makes this hold.
#include <bit>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/operators.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "model/system_factory.hpp"
#include "obs/metrics.hpp"
#include "oracle/reference_ops.hpp"

namespace cube {
namespace {

/// Reads one of the kernel_counters out of a per-call registry.
std::uint64_t kernel_count(obs::MetricsRegistry& reg, const char* name) {
  return reg.counter(name).value();
}

struct Shape {
  std::size_t metrics = 5;
  std::size_t cnodes = 37;
  std::size_t threads = 8;
  double fill = 0.3;
  std::string prefix = "m";
  std::uint64_t seed = 1;
  StorageKind storage = StorageKind::Dense;
};

/// Deterministic synthetic experiment: metric chains of depth 4, a call
/// tree of fan-out 3, a flat system of single-threaded processes, and a
/// randomized severity of the requested fill rate.  Entities are inserted
/// in pre-order (document order), which is also the order
/// integrate_metadata emits merged entities — so equal prefixes share all
/// metadata AND map onto the integrated set via identity mappings;
/// different prefixes share nothing.
Experiment make_random(const Shape& shape) {
  auto md = std::make_unique<Metadata>();

  const Metric* parent = nullptr;
  for (std::size_t i = 0; i < shape.metrics; ++i) {
    if (i % 4 == 0) parent = nullptr;
    parent = &md->add_metric(parent, shape.prefix + std::to_string(i),
                             shape.prefix + std::to_string(i), Unit::Seconds,
                             "");
  }

  const Region& root_region =
      md->add_region(shape.prefix + "_main", "test.c", 1, 2);
  const Cnode* root = &md->add_cnode_for_region(nullptr, root_region);
  std::size_t created = 1;
  const std::function<void(const Cnode*, std::size_t)> grow =
      [&](const Cnode* p, std::size_t depth) {
        if (depth >= 5) return;
        for (int k = 0; k < 3 && created < shape.cnodes; ++k) {
          const Region& r = md->add_region(
              shape.prefix + "_f" + std::to_string(created), "test.c",
              2 * static_cast<long>(created) + 1,
              2 * static_cast<long>(created) + 2);
          ++created;
          grow(&md->add_cnode_for_region(p, r), depth + 1);
        }
      };
  grow(root, 0);

  build_regular_system(*md, "test machine", 1,
                       static_cast<int>(shape.threads));

  Experiment e(std::move(md), shape.storage);
  e.set_name(shape.prefix + std::to_string(shape.seed));
  SplitMix64 rng(shape.seed);
  const Metadata& m = e.metadata();
  for (MetricIndex mi = 0; mi < m.num_metrics(); ++mi) {
    for (CnodeIndex ci = 0; ci < m.num_cnodes(); ++ci) {
      for (ThreadIndex ti = 0; ti < m.num_threads(); ++ti) {
        if (rng.uniform() < shape.fill) {
          // Mix in negative values so min/max and cancellation paths are
          // exercised.
          e.severity().set(mi, ci, ti, rng.uniform(-5.0, 10.0));
        }
      }
    }
  }
  return e;
}

/// Bitwise comparison over the full cell space plus stored-entry parity
/// (a sparse store must not materialize zeros the reference would erase).
void expect_bit_identical(const Experiment& got, const Experiment& want,
                          const std::string& label) {
  const Metadata& md = want.metadata();
  ASSERT_EQ(got.metadata().num_metrics(), md.num_metrics()) << label;
  ASSERT_EQ(got.metadata().num_cnodes(), md.num_cnodes()) << label;
  ASSERT_EQ(got.metadata().num_threads(), md.num_threads()) << label;
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        const Severity g = got.severity().get(m, c, t);
        const Severity w = want.severity().get(m, c, t);
        ASSERT_EQ(std::bit_cast<std::uint64_t>(g),
                  std::bit_cast<std::uint64_t>(w))
            << label << " at (" << m << "," << c << "," << t << "): got " << g
            << " want " << w;
      }
    }
  }
  EXPECT_EQ(got.severity().nonzero_count(), want.severity().nonzero_count())
      << label;
}

enum class OpKind { Diff, Merge, Mean, Min, Max };

Experiment apply(OpKind op, const std::vector<const Experiment*>& operands,
                 const OperatorOptions& options) {
  const std::span<const Experiment* const> span(operands);
  switch (op) {
    case OpKind::Diff: return difference(*operands[0], *operands[1], options);
    case OpKind::Merge: return merge(*operands[0], *operands[1], options);
    case OpKind::Mean: return mean(span, options);
    case OpKind::Min: return minimum(span, options);
    case OpKind::Max: return maximum(span, options);
  }
  throw std::logic_error("unreachable");
}

Experiment apply_oracle(OpKind op,
                        const std::vector<const Experiment*>& operands,
                        const OperatorOptions& options) {
  const std::span<const Experiment* const> span(operands);
  switch (op) {
    case OpKind::Diff:
      return oracle::difference(*operands[0], *operands[1], options);
    case OpKind::Merge:
      return oracle::merge(*operands[0], *operands[1], options);
    case OpKind::Mean: return oracle::mean(span, options);
    case OpKind::Min: return oracle::minimum(span, options);
    case OpKind::Max: return oracle::maximum(span, options);
  }
  throw std::logic_error("unreachable");
}

const char* op_name(OpKind op) {
  switch (op) {
    case OpKind::Diff: return "diff";
    case OpKind::Merge: return "merge";
    case OpKind::Mean: return "mean";
    case OpKind::Min: return "min";
    case OpKind::Max: return "max";
  }
  return "?";
}

/// Operand metadata relationships exercised by the suite.
enum class MetaKind { Identical, Overlapping, Disjoint };

std::vector<Experiment> make_operands(MetaKind meta, std::size_t count,
                                      double fill, StorageKind storage) {
  std::vector<Experiment> operands;
  for (std::size_t i = 0; i < count; ++i) {
    Shape s;
    s.fill = fill;
    s.storage = storage;
    s.seed = i + 1;
    switch (meta) {
      case MetaKind::Identical:
        break;  // same prefix and shape: identity mappings
      case MetaKind::Overlapping:
        // Same prefix, shrinking entity sets: later operands map onto a
        // prefix of the integrated space, the first one is the identity.
        s.metrics -= i % 2;
        s.cnodes -= 5 * i;
        break;
      case MetaKind::Disjoint:
        s.prefix = "p" + std::to_string(i) + "_";
        s.cnodes = 20 + 3 * i;
        break;
    }
    operands.push_back(make_random(s));
  }
  return operands;
}

class BulkEquivalence : public ::testing::TestWithParam<MetaKind> {};

TEST_P(BulkEquivalence, MatchesPerCellReferenceBitForBit) {
  const MetaKind meta = GetParam();
  ThreadPool pool(4);
  const ParallelFor pool_for =
      [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(n, body);
      };

  for (const OpKind op :
       {OpKind::Diff, OpKind::Merge, OpKind::Mean, OpKind::Min, OpKind::Max}) {
    const std::size_t count =
        (op == OpKind::Diff || op == OpKind::Merge) ? 2 : 3;
    for (const double fill : {1.0, 0.1, 0.01}) {
      for (const StorageKind operand_storage :
           {StorageKind::Dense, StorageKind::Sparse}) {
        const std::vector<Experiment> operands =
            make_operands(meta, count, fill, operand_storage);
        std::vector<const Experiment*> ptrs;
        for (const auto& e : operands) ptrs.push_back(&e);

        for (const StorageKind result_storage :
             {StorageKind::Dense, StorageKind::Sparse}) {
          OperatorOptions reference;
          reference.storage = result_storage;
          const Experiment want = apply_oracle(op, ptrs, reference);

          for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
            OperatorOptions bulk;
            bulk.storage = result_storage;
            obs::MetricsRegistry stats;
            bulk.metrics = &stats;
            if (threads > 1) bulk.parallel_for = pool_for;
            const Experiment got = apply(op, ptrs, bulk);
            const std::string label =
                std::string(op_name(op)) + " fill=" + std::to_string(fill) +
                " opstore=" +
                (operand_storage == StorageKind::Dense ? "dense" : "sparse") +
                " outstore=" +
                (result_storage == StorageKind::Dense ? "dense" : "sparse") +
                " threads=" + std::to_string(threads);
            expect_bit_identical(got, want, label);
            EXPECT_EQ(kernel_count(stats, kernel_counters::kApplications), 1u)
                << label;
            EXPECT_GT(kernel_count(stats, kernel_counters::kChunks), 0u)
                << label;
            // The right kernel family must have fired for the operands.
            // Sparse operands at full occupancy are densified (see the
            // prepare_batch threshold) and legitimately run the dense
            // kernels.
            const bool dense_ops = operand_storage == StorageKind::Dense;
            const std::uint64_t dense_work =
                kernel_count(stats, kernel_counters::kIdentityDenseCells) +
                kernel_count(stats, kernel_counters::kRemapDenseCells);
            const std::uint64_t sparse_work =
                kernel_count(stats, kernel_counters::kIdentitySparseNnz) +
                kernel_count(stats, kernel_counters::kRemapSparseNnz);
            EXPECT_GT(dense_work + sparse_work, 0u) << label;
            if (dense_ops) {
              EXPECT_EQ(sparse_work, 0u) << label;
            } else if (fill <= 0.1) {
              EXPECT_EQ(dense_work, 0u) << label;
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllMetadataKinds, BulkEquivalence,
                         ::testing::Values(MetaKind::Identical,
                                           MetaKind::Overlapping,
                                           MetaKind::Disjoint),
                         [](const auto& info) {
                           switch (info.param) {
                             case MetaKind::Identical: return "Identical";
                             case MetaKind::Overlapping: return "Overlapping";
                             case MetaKind::Disjoint: return "Disjoint";
                           }
                           return "Unknown";
                         });

TEST(BulkKernels, IdenticalMetadataTakesIdentityFastPath) {
  const auto operands =
      make_operands(MetaKind::Identical, 2, 0.5, StorageKind::Dense);
  const Experiment* ptrs[] = {&operands[0], &operands[1]};
  IntegrationResult integration = integrate_metadata(ptrs);
  for (const OperandMapping& mp : integration.mappings) {
    EXPECT_TRUE(mp.metric_identity);
    EXPECT_TRUE(mp.cnode_identity);
    EXPECT_TRUE(mp.thread_identity);
    EXPECT_TRUE(mp.identity());
  }

  OperatorOptions options;
  obs::MetricsRegistry stats;
  options.metrics = &stats;
  (void)difference(operands[0], operands[1], options);
  EXPECT_GT(kernel_count(stats, kernel_counters::kIdentityDenseCells), 0u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kRemapDenseCells), 0u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kIdentitySparseNnz), 0u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kRemapSparseNnz), 0u);
}

TEST(BulkKernels, DisjointMetadataTakesRemapPath) {
  const auto operands =
      make_operands(MetaKind::Disjoint, 2, 0.5, StorageKind::Dense);
  const Experiment* ptrs[] = {&operands[0], &operands[1]};
  IntegrationResult integration = integrate_metadata(ptrs);
  EXPECT_FALSE(integration.mappings[0].identity());
  EXPECT_FALSE(integration.mappings[1].identity());

  OperatorOptions options;
  obs::MetricsRegistry stats;
  options.metrics = &stats;
  (void)difference(operands[0], operands[1], options);
  EXPECT_GT(kernel_count(stats, kernel_counters::kRemapDenseCells), 0u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kIdentityDenseCells), 0u);
}

TEST(BulkKernels, SparseOperandsCostNonzeros) {
  const auto operands =
      make_operands(MetaKind::Identical, 2, 0.01, StorageKind::Sparse);
  const Experiment* ptrs[] = {&operands[0], &operands[1]};
  OperatorOptions options;
  obs::MetricsRegistry stats;
  options.metrics = &stats;
  (void)difference(*ptrs[0], *ptrs[1], options);
  const std::uint64_t nnz = operands[0].severity().nonzero_count() +
                            operands[1].severity().nonzero_count();
  EXPECT_EQ(kernel_count(stats, kernel_counters::kIdentitySparseNnz), nnz);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kIdentityDenseCells), 0u);
  EXPECT_EQ(kernel_count(stats, kernel_counters::kRemapDenseCells), 0u);
}

TEST(BulkKernels, SingleMetricExperimentStillChunks) {
  // Regression for the old metric-row chunker: a 1-metric x large-plane
  // experiment used to always run sequentially; cell chunking must
  // partition it.
  Shape s;
  s.metrics = 1;
  s.cnodes = 64;
  s.threads = 16;
  s.seed = 1;
  const Experiment a = make_random(s);
  s.seed = 2;
  const Experiment b = make_random(s);

  ThreadPool pool(4);
  OperatorOptions options;
  options.parallel_for =
      [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(n, body);
      };
  obs::MetricsRegistry stats;
  options.metrics = &stats;
  const Experiment bulk = difference(a, b, options);
  EXPECT_GT(kernel_count(stats, kernel_counters::kChunks), 1u);

  expect_bit_identical(bulk, oracle::difference(a, b), "1-metric chunked");
}

TEST(BulkKernels, SparseResultParallelMatchesSequential) {
  // Sparse results are now chunk-parallel through staging buffers; the
  // stored cubes must not depend on the executor.
  const auto operands =
      make_operands(MetaKind::Overlapping, 3, 0.1, StorageKind::Sparse);
  std::vector<const Experiment*> ptrs;
  for (const auto& e : operands) ptrs.push_back(&e);

  OperatorOptions sequential;
  sequential.storage = StorageKind::Sparse;
  const Experiment want = mean(ptrs, sequential);

  ThreadPool pool(4);
  OperatorOptions parallel;
  parallel.storage = StorageKind::Sparse;
  parallel.parallel_for =
      [&pool](std::size_t n, const std::function<void(std::size_t)>& body) {
        pool.parallel_for(n, body);
      };
  expect_bit_identical(mean(ptrs, parallel), want, "sparse parallel mean");
}

}  // namespace
}  // namespace cube
