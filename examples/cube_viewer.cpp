// Interactive CUBE viewer: the display component as a command-line tool.
//
// Usage:
//   cube_viewer <file.cube> [<name>=<file.cube> ...] [--expr EXPR]
//               [--color] [--batch CMD ';' CMD ...]
//
// With one file, the viewer browses it directly.  With several named files
// plus --expr, it first evaluates a query expression (the grammar of
// cube_calc and cube_query, without repository selectors) such as
//
//   cube_viewer a=run1.cube b=run2.cube c=opt.cube
//       --expr 'diff(mean(a, b), c)'
//
// and browses the derived experiment — the closure property at work.
// With --html FILE the current view is additionally exported as a
// standalone HTML page after every command.  Without --batch, commands are
// read from stdin (type 'help').
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "binding_util.hpp"
#include "common/error.hpp"
#include "display/browser.hpp"
#include "display/html.hpp"
#include "query/query_expr.hpp"

namespace {

void usage() {
  std::cerr << "usage: cube_viewer <file.cube> [name=file.cube ...]\n"
               "                   [--expr EXPR] [--color] [--html out.html]\n"
               "                   [--batch 'cmd; cmd; ...']\n";
}

}  // namespace

int main(int argc, char** argv) {
  cube::cli::FileBindings bindings;
  std::optional<std::string> expr;
  std::optional<std::string> batch;
  std::optional<std::string> html_path;
  cube::RenderOptions render;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--expr" && i + 1 < argc) {
      expr = argv[++i];
    } else if (arg == "--batch" && i + 1 < argc) {
      batch = argv[++i];
    } else if (arg == "--html" && i + 1 < argc) {
      html_path = argv[++i];
    } else if (arg == "--color") {
      render.color = true;
      render.legend = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
      return 0;
    } else {
      bindings.add(arg);
    }
  }
  if (bindings.empty()) {
    usage();
    return 1;
  }

  try {
    const cube::query::ExperimentEnv env = bindings.load();
    const cube::Experiment subject =
        expr ? cube::query::eval_query_with_env(*expr, env)
             : bindings.front().clone();

    cube::Browser browser(subject, render);
    std::cout << browser.render() << "\n";

    const auto run_command = [&](const std::string& command) {
      try {
        const std::string out = browser.execute(command);
        if (!out.empty()) std::cout << out << "\n";
        if (html_path) {
          cube::write_html_file(browser.state(), *html_path);
        }
      } catch (const cube::Error& e) {
        std::cout << "error: " << e.what() << "\n";
      }
    };

    if (batch) {
      std::string current;
      for (const char c : *batch + ";") {
        if (c == ';') {
          if (!current.empty()) run_command(current);
          current.clear();
        } else {
          current.push_back(c);
        }
      }
      return 0;
    }

    std::string line;
    std::cout << "> " << std::flush;
    while (std::getline(std::cin, line)) {
      if (line == "quit" || line == "exit") break;
      run_command(line);
      std::cout << "> " << std::flush;
    }
    return 0;
  } catch (const cube::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
