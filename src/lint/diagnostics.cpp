#include "lint/diagnostics.hpp"

#include <ostream>

#include "obs/json_export.hpp"

namespace cube::lint {

std::string_view level_name(Level level) noexcept {
  switch (level) {
    case Level::Note:
      return "note";
    case Level::Warning:
      return "warning";
    case Level::Error:
      return "error";
  }
  return "error";
}

void DiagnosticSink::report(std::string rule, Level level,
                            std::string location, std::string message,
                            std::string hint) {
  if (!subject_.empty()) {
    location = location.empty() ? subject_ : subject_ + " / " + location;
  }
  switch (level) {
    case Level::Note:
      ++notes_;
      break;
    case Level::Warning:
      ++warnings_;
      break;
    case Level::Error:
      ++errors_;
      break;
  }
  diagnostics_.push_back(Diagnostic{std::move(rule), level,
                                    std::move(location), std::move(message),
                                    std::move(hint)});
}

bool DiagnosticSink::reached(Level level) const noexcept {
  switch (level) {
    case Level::Note:
      return !diagnostics_.empty();
    case Level::Warning:
      return warnings_ > 0 || errors_ > 0;
    case Level::Error:
      return errors_ > 0;
  }
  return false;
}

int DiagnosticSink::exit_code() const noexcept {
  if (errors_ > 0) return 2;
  if (warnings_ > 0) return 1;
  return 0;
}

bool DiagnosticSink::has_rule(std::string_view rule) const noexcept {
  for (const Diagnostic& d : diagnostics_) {
    if (d.rule == rule) return true;
  }
  return false;
}

void DiagnosticSink::write_text(std::ostream& out) const {
  for (const Diagnostic& d : diagnostics_) {
    out << level_name(d.level) << " [" << d.rule << "]";
    if (!d.location.empty()) out << " " << d.location << ":";
    out << " " << d.message << "\n";
    if (!d.hint.empty()) out << "  hint: " << d.hint << "\n";
  }
  out << errors_ << " error(s), " << warnings_ << " warning(s), " << notes_
      << " note(s)\n";
}

void DiagnosticSink::write_json(std::ostream& out) const {
  out << "{\n  \"errors\": " << errors_ << ",\n  \"warnings\": " << warnings_
      << ",\n  \"notes\": " << notes_ << ",\n  \"findings\": [";
  for (std::size_t i = 0; i < diagnostics_.size(); ++i) {
    const Diagnostic& d = diagnostics_[i];
    out << (i == 0 ? "" : ",") << "\n    {\"rule\": ";
    obs::write_json_string(out, d.rule);
    out << ", \"level\": \"" << level_name(d.level) << "\", \"location\": ";
    obs::write_json_string(out, d.location);
    out << ", \"message\": ";
    obs::write_json_string(out, d.message);
    if (!d.hint.empty()) {
      out << ", \"hint\": ";
      obs::write_json_string(out, d.hint);
    }
    out << "}";
  }
  out << "\n  ]\n}\n";
}

}  // namespace cube::lint
