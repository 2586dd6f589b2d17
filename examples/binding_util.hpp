// name=file bindings of the file-based algebra CLIs (cube_calc,
// cube_viewer): each `[name=]file` argument binds a reference name of the
// query grammar (query/query_expr.hpp) to a CUBE file.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "io/cube_format.hpp"
#include "model/experiment.hpp"
#include "query/query_expr.hpp"

namespace cube::cli {

class FileBindings {
 public:
  /// Records one `[name=]file` argument.  An unnamed file is bound to
  /// expN, N being its 1-based position among all bindings.
  void add(const std::string& arg) {
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      inputs_.emplace_back("exp" + std::to_string(inputs_.size() + 1), arg);
    } else {
      inputs_.emplace_back(arg.substr(0, eq), arg.substr(eq + 1));
    }
  }

  [[nodiscard]] bool empty() const noexcept { return inputs_.empty(); }

  /// Loads every file and returns the environment over them; a file
  /// whose experiment has no name takes its binding's.  A name bound
  /// twice is an error rather than a later file silently shadowing an
  /// earlier one.  Throws cube::Error.
  [[nodiscard]] query::ExperimentEnv load() {
    for (std::size_t i = 0; i < inputs_.size(); ++i) {
      for (std::size_t j = i + 1; j < inputs_.size(); ++j) {
        if (inputs_[i].first == inputs_[j].first) {
          throw Error("duplicate binding '" + inputs_[i].first +
                      "': bound to '" + inputs_[i].second + "' and to '" +
                      inputs_[j].second + "'");
        }
      }
    }
    loaded_.reserve(inputs_.size());  // keeps the env's pointers stable
    query::ExperimentEnv env;
    for (const auto& [name, path] : inputs_) {
      loaded_.push_back(read_experiment_file(path));
      if (loaded_.back().name().empty()) loaded_.back().set_name(name);
      env[name] = &loaded_.back();
    }
    return env;
  }

  /// The first binding's experiment; valid after load().
  [[nodiscard]] const Experiment& front() const { return loaded_.front(); }

 private:
  std::vector<std::pair<std::string, std::string>> inputs_;  // name, path
  std::vector<Experiment> loaded_;
};

}  // namespace cube::cli
