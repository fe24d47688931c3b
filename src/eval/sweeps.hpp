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
#include <string_view>
#include <type_traits>

#include "eval/figures.hpp"
#include "eval/sim_validation.hpp"

namespace qp::eval {

namespace detail {

/// Writes `text` as one CSV field: quoted, with inner quotes doubled, when
/// it holds a comma, a quote or a line break (RFC 4180); as is otherwise.
inline void write_csv_field(std::ostream& out, std::string_view text) {
  if (text.find_first_of(",\"\r\n") == std::string_view::npos) {
    out << text;
    return;
  }
  out << '"';
  for (char c : text) {
    if (c == '"') out << '"';
    out << c;
  }
  out << '"';
}

}  // namespace detail

/// Prints the header and one line per row. Bools print as 0/1; strings are
/// quoted where RFC 4180 needs it (detail::write_csv_field); every other value goes
/// through operator<< with the stream's formatting.
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
      using Value = std::remove_cvref_t<decltype(value)>;
      if constexpr (std::is_same_v<Value, bool>) {
        out << (value ? 1 : 0);
      } else if constexpr (std::is_convertible_v<const Value&, std::string_view>) {
        detail::write_csv_field(out, value);
      } else {
        out << value;
      }
      separator = ",";
    });
    out << '\n';
  }
}

}  // namespace qp::eval
