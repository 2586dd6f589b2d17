// The per-cell reference operators: the oracle the equivalence suites and
// the bench reference rows compare the batched severity kernels against,
// bit for bit.
//
// Each operator is spelled out directly from its definition, through the
// virtual SeverityStore get/add/set interface: integrate the metadata,
// then, operand by operand and in ascending source (metric, cnode, thread)
// order, add every non-zero source value into its mapped result cell.
// Coalescing source cells therefore accumulate one rounding per
// contribution, exactly as the zero-extension rule prescribes.  Only
// OperatorOptions::integration and ::storage are honoured; the oracle is
// always sequential.
#pragma once

#include <span>

#include "algebra/operators.hpp"
#include "model/experiment.hpp"

namespace cube::oracle {

[[nodiscard]] Experiment difference(const Experiment& a, const Experiment& b,
                                    const OperatorOptions& options = {});
[[nodiscard]] Experiment merge(const Experiment& a, const Experiment& b,
                               const OperatorOptions& options = {});
[[nodiscard]] Experiment mean(std::span<const Experiment* const> operands,
                              const OperatorOptions& options = {});
[[nodiscard]] Experiment minimum(std::span<const Experiment* const> operands,
                                 const OperatorOptions& options = {});
[[nodiscard]] Experiment maximum(std::span<const Experiment* const> operands,
                                 const OperatorOptions& options = {});
[[nodiscard]] Experiment stddev(std::span<const Experiment* const> operands,
                                const OperatorOptions& options = {});
[[nodiscard]] Experiment variation(
    std::span<const Experiment* const> operands,
    const OperatorOptions& options = {});

}  // namespace cube::oracle
