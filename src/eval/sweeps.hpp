// The one CSV row path for the figure outputs. Every row type — the eval::
// points of figures.hpp and sim_validation.hpp, and the bench-local rows —
// names its columns once, in CSV order, with a member
//   template <class F> void columns(F&& f) const { f("universe", universe); ... }
// print_csv builds the header from those names and each row from the
// values; bench/bench_util.hpp's emit_rows prints through it and turns the
// numeric columns of the same list into the benchmark counters, so the CSV
// and the JSON cannot disagree on a name.
#pragma once

#include <ostream>
#include <ranges>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "eval/figures.hpp"
#include "eval/sim_validation.hpp"

namespace qp::eval {

/// Prints the header and one line per row. Bools print as 0/1; every other
/// value goes through operator<< with the stream's formatting.
template <std::ranges::input_range Rows>
void print_csv(std::ostream& out, const Rows& rows) {
  using Row = std::ranges::range_value_t<Rows>;
  const char* separator = "";
  Row{}.columns([&](const char* name, const auto&) {
    out << separator << name;
    separator = ",";
  });
  out << '\n';
  for (const Row& row : rows) {
    separator = "";
    row.columns([&](const char*, const auto& value) {
      out << separator;
      if constexpr (std::is_same_v<std::remove_cvref_t<decltype(value)>, bool>) {
        out << (value ? 1 : 0);
      } else {
        out << value;
      }
      separator = ",";
    });
    out << '\n';
  }
}

/// Filters rows by a predicate-free convenience: rows matching a stage name.
[[nodiscard]] std::vector<IterativePoint> rows_for_stage(
    std::span<const IterativePoint> points, const std::string& stage);

}  // namespace qp::eval
