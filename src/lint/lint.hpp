// Static invariant checker over in-memory experiments (docs/LINT.md).
//
// The CUBE algebra is only defined over VALID experiments: well-formed
// metric/program/system forests, cross-dimension references that resolve,
// and a severity function confined to the metric x cnode x thread cross
// product (paper section 2, "Data Model").  Nothing in the construction
// API can violate most of these — the Metadata factories enforce them —
// but data arriving from files, foreign tools, or future builders can.
// These passes re-check every invariant explicitly and report violations
// as structured diagnostics instead of deep asserts or silent wrong
// answers.
//
// Layering: this header depends on the model only; file- and
// repository-level passes live in lint/file_lint.hpp and
// lint/repo_lint.hpp.
#pragma once

#include <span>
#include <string>

#include "lint/diagnostics.hpp"
#include "model/experiment.hpp"
#include "model/metadata.hpp"

namespace cube::lint {

/// Switches for the in-memory passes.
struct Options {
  /// Scan severity values (non-finite, negative-in-original).  The scan is
  /// O(non-zeros); disable for guard paths that only need structure.
  bool check_values = true;
  /// Recompute the structural digest (clone + freeze) and compare it with
  /// the frozen one.  O(metadata size).
  bool check_digest = true;
  /// Cap on reported findings per value rule; further findings fold into
  /// one summary diagnostic.  0 = unlimited.
  std::size_t max_per_rule = 16;
};

/// Checks the three metadata forests: acyclicity, parent/child link
/// consistency, dense-index integrity, duplicate identities, unit
/// consistency, empty levels, dangling cross-dimension references, and
/// (optionally) the frozen digest.
void lint_metadata(const Metadata& metadata, DiagnosticSink& sink,
                   const Options& options = {});

/// lint_metadata plus the severity-domain and attribute rules of one
/// experiment.
void lint_experiment(const Experiment& experiment, DiagnosticSink& sink,
                     const Options& options = {});

/// Cross-experiment compatibility pre-checks: the operand conditions
/// difference/merge/mean assume.  Reports (does not throw) so callers can
/// present all conflicts at once before running an operator.
void lint_compatibility(std::span<const Experiment* const> operands,
                        DiagnosticSink& sink);

/// Runs lint_experiment and throws ValidationError if any error-level
/// finding fired; `context` names the data source (file, repository id)
/// in the exception message.
void require_valid(const Experiment& experiment, const std::string& context,
                   const Options& options = {});

}  // namespace cube::lint
