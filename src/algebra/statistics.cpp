#include "algebra/statistics.hpp"

#include <cmath>

#include "algebra/batch.hpp"
#include "common/error.hpp"
#include "obs/tracer.hpp"

namespace cube {

namespace {

// The per-cell folds over an accessor at(r) -> r-th operand's
// zero-extended value.  Accumulation order is operand order, so the
// per-cell oracle (tests/oracle) reproduces them bit for bit.

template <typename At>
double cell_mean(const At& at, std::size_t n) {
  Severity sum = 0.0;
  for (std::size_t r = 0; r < n; ++r) sum += at(r);
  return sum / static_cast<double>(n);
}

template <typename At>
double cell_stddev(const At& at, std::size_t n) {
  const double mu = cell_mean(at, n);
  double acc = 0.0;
  for (std::size_t r = 0; r < n; ++r) acc += (at(r) - mu) * (at(r) - mu);
  return std::sqrt(acc / static_cast<double>(n));
}

/// Shared reduction core: the operator frame of batch::apply_operator
/// around ONE batched sweep, each operand staged as a tile row and the N
/// rows folded per cell.
template <typename Fold>
Experiment reduce_series(std::span<const Experiment* const> operands,
                         const IntegrationResult* hoisted,
                         const OperatorOptions& options, const char* opname,
                         const Fold& fold) {
  return batch::apply_operator(
      opname, operands, 2, hoisted, options,
      [&](const IntegrationResult& integration, Experiment& out) {
        batch::reduce_batched(
            operands, integration.mappings, out, options,
            [&fold](Severity* acc, const simd::TileRow* rows,
                    std::size_t nrows, std::size_t n) {
              for (std::size_t i = 0; i < n; ++i) {
                const auto get = [rows, i](std::size_t r) {
                  return rows[r].data[i];
                };
                acc[i] = fold(get, nrows);
              }
            });
      });
}

const auto stddev_fold = [](const auto& at, std::size_t n) {
  return cell_stddev(at, n);
};

const auto variation_fold = [](const auto& at, std::size_t n) {
  const double mu = cell_mean(at, n);
  if (mu == 0.0) return 0.0;
  return cell_stddev(at, n) / std::abs(mu);
};

}  // namespace

Experiment stddev(std::span<const Experiment* const> operands,
                  const OperatorOptions& options) {
  OBS_SPAN("operator.stddev");
  return reduce_series(operands, nullptr, options, "stddev", stddev_fold);
}

Experiment stddev(std::span<const Experiment* const> operands,
                  const IntegrationResult& integration,
                  const OperatorOptions& options) {
  OBS_SPAN("operator.stddev");
  return reduce_series(operands, &integration, options, "stddev",
                       stddev_fold);
}

Experiment variation(std::span<const Experiment* const> operands,
                     const OperatorOptions& options) {
  OBS_SPAN("operator.variation");
  return reduce_series(operands, nullptr, options, "variation",
                       variation_fold);
}

Experiment variation(std::span<const Experiment* const> operands,
                     const IntegrationResult& integration,
                     const OperatorOptions& options) {
  OBS_SPAN("operator.variation");
  return reduce_series(operands, &integration, options, "variation",
                       variation_fold);
}

SeriesSummary summarize_series(std::span<const Experiment* const> operands,
                               const OperatorOptions& options) {
  if (operands.size() < 2) {
    throw OperationError("summarize_series requires >= 2 operands");
  }
  // One metadata integration for all four reductions.  Before the hoisted
  // operator forms existed, each of the four integrated separately — four
  // structural merges whenever the series' metadata is digest-distinct
  // but structurally equal.
  const IntegrationResult integration =
      integrate_metadata(operands, options.integration);
  SeriesSummary summary{
      mean(operands, integration, options),
      minimum(operands, integration, options),
      maximum(operands, integration, options),
      stddev(operands, integration, options),
  };
  return summary;
}

}  // namespace cube
