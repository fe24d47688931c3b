// Shared helpers for the figure benches: every binary prints its figure's
// series as CSV (exact regeneration of the paper plot's data), registers one
// google-benchmark entry per data point carrying the values as counters, and
// registers at least one genuine timing benchmark of the kernel involved.
//
// Both outputs of a data point come from one place: the row type's
// columns(f) list (see eval/sweeps.hpp). emit_rows prints the rows through
// eval::print_csv and gives each registered point exactly the row's numeric
// columns as counters, under their CSV names.
#pragma once

#include <benchmark/benchmark.h>

#include <iostream>
#include <string>
#include <type_traits>

#include "eval/sweeps.hpp"

namespace qp::bench {

/// Registers a no-op benchmark whose counters carry a figure data point.
template <typename Fill>
void register_point(const std::string& name, Fill fill) {
  benchmark::RegisterBenchmark(name.c_str(), [fill](benchmark::State& state) {
    for (auto _ : state) {
      benchmark::DoNotOptimize(&state);
    }
    fill(state);
  })->Iterations(1);
}

/// Prints `rows` as one CSV block on stdout and registers one point per
/// row, named `name(row)`, whose counters are the row's numeric (arithmetic,
/// bools as 0/1) columns.
template <typename Rows, typename Name>
void emit_rows(const Rows& rows, Name name) {
  eval::print_csv(std::cout, rows);
  for (const auto& row : rows) {
    benchmark::UserCounters counters;
    row.columns([&counters](const char* column, const auto& value) {
      if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(value)>>) {
        counters[column] = static_cast<double>(value);
      }
    });
    register_point(name(row), [counters](benchmark::State& state) { state.counters = counters; });
  }
}

inline int run_benchmarks(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace qp::bench
