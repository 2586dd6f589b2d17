#include "oracle/reference_ops.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "algebra/integration.hpp"
#include "common/error.hpp"

namespace cube::oracle {

namespace {

struct Applied {
  IntegrationResult integration;
  Experiment out;
};

Applied integrate(std::span<const Experiment* const> operands,
                  std::size_t min_operands, const OperatorOptions& options) {
  if (operands.size() < min_operands) {
    throw OperationError("oracle: too few operands");
  }
  IntegrationResult integration =
      integrate_metadata(operands, options.integration);
  Experiment out(integration.metadata, options.storage);
  return {std::move(integration), std::move(out)};
}

/// Adds `factor` times operand `op`'s severity into `out` through its
/// index mapping, skipping metrics `op` does not own (merge) when `owner`
/// is given.  Only non-zero source values are touched.
void scatter_scaled(const Experiment& source, const OperandMapping& mapping,
                    double factor, Experiment& out, std::size_t op = 0,
                    const std::vector<std::size_t>* owner = nullptr) {
  const Metadata& md = source.metadata();
  const SeverityStore& sev = source.severity();
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    const MetricIndex om = mapping.metric_map[m];
    if (owner != nullptr && (*owner)[om] != op) continue;
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      const CnodeIndex oc = mapping.cnode_map[c];
      for (ThreadIndex t = 0; t < md.num_threads(); ++t) {
        const Severity v = sev.get(m, c, t);
        if (v != 0.0) {
          out.severity().add(om, oc, mapping.thread_map[t], factor * v);
        }
      }
    }
  }
}

/// values[cell * N + op]: every operand's zero-extension materialized per
/// result cell; coalescing source cells accumulate in ascending source
/// order.
std::vector<Severity> extend_all(std::span<const Experiment* const> operands,
                                 const IntegrationResult& integration,
                                 const Metadata& md) {
  const std::size_t n = operands.size();
  std::vector<Severity> values(
      md.num_metrics() * md.num_cnodes() * md.num_threads() * n, 0.0);
  for (std::size_t op = 0; op < n; ++op) {
    const Experiment& source = *operands[op];
    const OperandMapping& mapping = integration.mappings[op];
    const Metadata& smd = source.metadata();
    for (MetricIndex m = 0; m < smd.num_metrics(); ++m) {
      for (CnodeIndex c = 0; c < smd.num_cnodes(); ++c) {
        for (ThreadIndex t = 0; t < smd.num_threads(); ++t) {
          const Severity v = source.severity().get(m, c, t);
          if (v == 0.0) continue;
          const std::size_t cell =
              (mapping.metric_map[m] * md.num_cnodes() +
               mapping.cnode_map[c]) *
                  md.num_threads() +
              mapping.thread_map[t];
          values[cell * n + op] += v;
        }
      }
    }
  }
  return values;
}

/// Folds each result cell's N extended values with fold(values, N) and
/// stores the non-zero results.
template <typename Fold>
Experiment fold_cells(std::span<const Experiment* const> operands,
                      std::size_t min_operands, const OperatorOptions& options,
                      const Fold& fold) {
  Applied a = integrate(operands, min_operands, options);
  const Metadata& md = a.out.metadata();
  const std::size_t n = operands.size();
  const std::vector<Severity> values = extend_all(operands, a.integration, md);
  std::size_t cell = 0;
  for (MetricIndex m = 0; m < md.num_metrics(); ++m) {
    for (CnodeIndex c = 0; c < md.num_cnodes(); ++c) {
      for (ThreadIndex t = 0; t < md.num_threads(); ++t, ++cell) {
        const Severity v = fold(&values[cell * n], n);
        if (v != 0.0) a.out.severity().set(m, c, t, v);
      }
    }
  }
  return std::move(a.out);
}

Experiment extremum(std::span<const Experiment* const> operands,
                    const OperatorOptions& options, bool take_min) {
  return fold_cells(operands, 1, options,
                    [take_min](const Severity* v, std::size_t n) {
                      Severity acc = v[0];
                      for (std::size_t r = 1; r < n; ++r) {
                        acc = take_min ? std::min(acc, v[r])
                                       : std::max(acc, v[r]);
                      }
                      return acc;
                    });
}

double cell_mean(const Severity* v, std::size_t n) {
  Severity sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) sum += v[r];
  return sum / static_cast<double>(n);
}

double cell_stddev(const Severity* v, std::size_t n) {
  const double mu = cell_mean(v, n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) acc += (v[r] - mu) * (v[r] - mu);
  return std::sqrt(acc / static_cast<double>(n));
}

}  // namespace

Experiment difference(const Experiment& a, const Experiment& b,
                      const OperatorOptions& options) {
  const Experiment* ops[] = {&a, &b};
  Applied r = integrate(ops, 2, options);
  scatter_scaled(a, r.integration.mappings[0], 1.0, r.out);
  scatter_scaled(b, r.integration.mappings[1], -1.0, r.out);
  return std::move(r.out);
}

Experiment merge(const Experiment& a, const Experiment& b,
                 const OperatorOptions& options) {
  const Experiment* ops[] = {&a, &b};
  Applied r = integrate(ops, 2, options);
  // A metric of the integrated set is owned by the first operand that
  // provides it; only the owner contributes its severities.
  std::vector<std::size_t> owner(r.out.metadata().num_metrics(), kNoIndex);
  for (std::size_t op = 0; op < 2; ++op) {
    for (const MetricIndex om : r.integration.mappings[op].metric_map) {
      if (owner[om] == kNoIndex) owner[om] = op;
    }
  }
  for (std::size_t op = 0; op < 2; ++op) {
    scatter_scaled(*ops[op], r.integration.mappings[op], 1.0, r.out, op,
                   &owner);
  }
  return std::move(r.out);
}

Experiment mean(std::span<const Experiment* const> operands,
                const OperatorOptions& options) {
  Applied r = integrate(operands, 1, options);
  const double factor = 1.0 / static_cast<double>(operands.size());
  for (std::size_t op = 0; op < operands.size(); ++op) {
    scatter_scaled(*operands[op], r.integration.mappings[op], factor, r.out);
  }
  return std::move(r.out);
}

Experiment minimum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  return extremum(operands, options, /*take_min=*/true);
}

Experiment maximum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  return extremum(operands, options, /*take_min=*/false);
}

Experiment stddev(std::span<const Experiment* const> operands,
                  const OperatorOptions& options) {
  return fold_cells(operands, 2, options, cell_stddev);
}

Experiment variation(std::span<const Experiment* const> operands,
                     const OperatorOptions& options) {
  return fold_cells(operands, 2, options,
                    [](const Severity* v, std::size_t n) {
                      const double mu = cell_mean(v, n);
                      if (mu == 0.0) return 0.0;
                      return cell_stddev(v, n) / std::abs(mu);
                    });
}

}  // namespace cube::oracle
