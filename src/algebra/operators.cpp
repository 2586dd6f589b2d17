#include "algebra/operators.hpp"

#include <vector>

#include "algebra/batch.hpp"
#include "obs/tracer.hpp"

namespace cube {

namespace {

using batch::apply_operator;

/// mean over an already-integrated (or to-be-integrated) series.
Experiment mean_impl(std::span<const Experiment* const> operands,
                     const IntegrationResult* hoisted,
                     const OperatorOptions& options) {
  return apply_operator(
      "mean", operands, 1, hoisted, options,
      [&](const IntegrationResult& integration, Experiment& out) {
        const std::vector<double> factors(
            operands.size(), 1.0 / static_cast<double>(operands.size()));
        batch::reduce_batched(operands, integration.mappings, factors, out,
                              options);
      });
}

/// Element-wise min/max share everything but the reduction.
Experiment extremum_impl(std::span<const Experiment* const> operands,
                         const IntegrationResult* hoisted,
                         const OperatorOptions& options, bool take_min) {
  return apply_operator(
      take_min ? "min" : "max", operands, 1, hoisted, options,
      [&](const IntegrationResult& integration, Experiment& out) {
        const simd::Policy policy = options.simd_policy;
        batch::reduce_batched(
            operands, integration.mappings, out, options,
            [policy, take_min](Severity* acc, const simd::TileRow* rows,
                               std::size_t nrows, std::size_t n) {
              simd::reduce_extremum(acc, rows, nrows, n, take_min, policy);
            });
      });
}

}  // namespace

Experiment difference(const Experiment& a, const Experiment& b,
                      const OperatorOptions& options) {
  OBS_SPAN("operator.diff");
  const Experiment* ops[] = {&a, &b};
  return apply_operator(
      "difference", ops, 2, nullptr, options,
      [&](const IntegrationResult& integration, Experiment& out) {
        const double factors[] = {1.0, -1.0};
        batch::reduce_batched(ops, integration.mappings, factors, out,
                              options);
      });
}

Experiment merge(const Experiment& a, const Experiment& b,
                 const OperatorOptions& options) {
  OBS_SPAN("operator.merge");
  const Experiment* ops[] = {&a, &b};
  return apply_operator(
      "merge", ops, 2, nullptr, options,
      [&](const IntegrationResult& integration, Experiment& out) {
        // A metric of the integrated set is owned by the first operand
        // that provides it; only the owner contributes its severities, so
        // every other operand's copy of it is masked to kNoIndex.
        std::vector<std::size_t> owner(out.metadata().num_metrics(),
                                       kNoIndex);
        for (std::size_t op = 0; op < 2; ++op) {
          for (const MetricIndex om : integration.mappings[op].metric_map) {
            if (owner[om] == kNoIndex) owner[om] = op;
          }
        }
        std::vector<OperandMapping> masked = integration.mappings;
        for (std::size_t op = 0; op < masked.size(); ++op) {
          for (MetricIndex& om : masked[op].metric_map) {
            if (owner[om] != op) {
              om = kNoIndex;
              masked[op].metric_identity = false;
            }
          }
        }
        const double factors[] = {1.0, 1.0};
        batch::reduce_batched(ops, masked, factors, out, options);
      });
}

Experiment mean(std::span<const Experiment* const> operands,
                const OperatorOptions& options) {
  OBS_SPAN("operator.mean");
  return mean_impl(operands, nullptr, options);
}

Experiment mean(const std::vector<const Experiment*>& operands,
                const OperatorOptions& options) {
  return mean(std::span<const Experiment* const>(operands), options);
}

Experiment mean(std::span<const Experiment* const> operands,
                const IntegrationResult& integration,
                const OperatorOptions& options) {
  OBS_SPAN("operator.mean");
  return mean_impl(operands, &integration, options);
}

Experiment minimum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.min");
  return extremum_impl(operands, nullptr, options, /*take_min=*/true);
}

Experiment maximum(std::span<const Experiment* const> operands,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.max");
  return extremum_impl(operands, nullptr, options, /*take_min=*/false);
}

Experiment minimum(std::span<const Experiment* const> operands,
                   const IntegrationResult& integration,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.min");
  return extremum_impl(operands, &integration, options, /*take_min=*/true);
}

Experiment maximum(std::span<const Experiment* const> operands,
                   const IntegrationResult& integration,
                   const OperatorOptions& options) {
  OBS_SPAN("operator.max");
  return extremum_impl(operands, &integration, options, /*take_min=*/false);
}

}  // namespace cube
