#include "display/html.hpp"

#include <cmath>

#include "common/error.hpp"
#include "common/file_io.hpp"
#include "common/string_util.hpp"

namespace cube {

namespace {

// Background color for a normalized severity magnitude: pale yellow
// through orange to red, matching the spirit of CUBE's color legend.
std::string css_color(double normalized) {
  if (normalized < 0.0) normalized = -normalized;
  if (normalized > 1.0) normalized = 1.0;
  // Interpolate hue 60 (yellow) -> 0 (red), saturating lightness.
  const int hue = static_cast<int>(60.0 * (1.0 - normalized));
  const int lightness = static_cast<int>(92.0 - 42.0 * normalized);
  return "hsl(" + std::to_string(hue) + ",85%," +
         std::to_string(lightness) + "%)";
}

void emit_pane(std::string& out, const ViewData& view, Pane pane,
               const char* title, const HtmlOptions& options) {
  const std::vector<ViewRow>* rows = nullptr;
  switch (pane) {
    case Pane::Metric: rows = &view.metric_rows; break;
    case Pane::Call: rows = &view.call_rows; break;
    case Pane::System: rows = &view.system_rows; break;
  }
  out += "<div class=\"pane\"><h2>";
  out += title;
  out += "</h2>\n<table>\n";
  for (const ViewRow& row : *rows) {
    if (!row.visible && !options.include_hidden) continue;
    const double normalized =
        view.scale_max > 0.0 ? std::abs(row.display_value) / view.scale_max
                             : 0.0;
    out += "<tr";
    if (row.selected) out += " class=\"selected\"";
    out += "><td class=\"value\" style=\"background:";
    out += css_color(normalized);
    out += "\">";
    // Relief: raised for positive, sunken for negative severities.
    out += row.value < 0.0 ? "&#9661; " : "&#9651; ";
    out += xml_escape(format_value(row.display_value,
                                   options.value_precision));
    out += "</td><td style=\"padding-left:";
    out += std::to_string(8 + 18 * row.depth);
    out += "px\">";
    if (row.expandable) out += row.expanded ? "&#9662; " : "&#9656; ";
    out += xml_escape(row.label);
    out += "</td></tr>\n";
  }
  out += "</table></div>\n";
}

}  // namespace

std::string render_html(const ViewState& state, const HtmlOptions& options) {
  const ViewData view = compute_view(state);
  const Experiment& e = state.experiment();
  const std::string title =
      !options.title.empty()
          ? options.title
          : (e.name().empty() ? std::string("CUBE experiment") : e.name());

  std::string out;
  out += "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">\n<title>";
  out += xml_escape(title);
  out +=
      "</title>\n<style>\n"
      "body{font-family:sans-serif;margin:1em;}\n"
      ".panes{display:flex;gap:1.5em;align-items:flex-start;}\n"
      ".pane table{border-collapse:collapse;font-size:13px;}\n"
      ".pane td{padding:1px 6px;white-space:nowrap;}\n"
      ".pane td.value{text-align:right;font-variant-numeric:tabular-nums;"
      "border:1px solid #bbb;min-width:4em;}\n"
      "tr.selected td{outline:2px solid #3366cc;}\n"
      ".meta{color:#555;margin-bottom:1em;}\n"
      "h2{font-size:15px;margin:0 0 4px 0;}\n"
      "</style></head>\n<body>\n<h1>";
  out += xml_escape(title);
  out += "</h1>\n<div class=\"meta\">";
  out += e.kind() == ExperimentKind::Derived ? "derived experiment"
                                             : "original experiment";
  if (!e.provenance().empty()) {
    out += " &mdash; provenance: " + xml_escape(e.provenance());
  }
  out += "<br>values: ";
  switch (state.mode()) {
    case ValueMode::Absolute:
      out += "absolute";
      break;
    case ValueMode::Percent:
      out += "percent of selected metric root total (" +
             xml_escape(format_value(view.reference,
                                     options.value_precision)) +
             ")";
      break;
    case ValueMode::External:
      out += "percent normalized to external reference (" +
             xml_escape(format_value(view.reference,
                                     options.value_precision)) +
             ")";
      break;
  }
  out += "</div>\n<div class=\"panes\">\n";
  emit_pane(out, view, Pane::Metric, "Metric tree", options);
  emit_pane(out, view, Pane::Call,
            state.program_view() == ProgramView::Flat ? "Flat profile"
                                                      : "Call tree",
            options);
  emit_pane(out, view, Pane::System, "System tree", options);
  out += "</div>\n</body></html>\n";
  return out;
}

void write_html_file(const ViewState& state, const std::string& path,
                     const HtmlOptions& options) {
  write_bytes(path, render_html(state, options));
}

}  // namespace cube
