#include "lp/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace qp::lp {

std::size_t LpProblem::add_variable(double objective_coefficient) {
  if (!std::isfinite(objective_coefficient)) {
    throw std::invalid_argument{"LpProblem: objective coefficient must be finite"};
  }
  columns_.emplace_back();
  objective_.push_back(objective_coefficient);
  return columns_.size() - 1;
}

std::size_t LpProblem::add_row(RowSense sense, double rhs) {
  if (!std::isfinite(rhs)) throw std::invalid_argument{"LpProblem: rhs must be finite"};
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  return senses_.size() - 1;
}

void LpProblem::add_coefficient(std::size_t row, std::size_t variable, double value) {
  check_row(row);
  check_variable(variable);
  if (!std::isfinite(value)) throw std::invalid_argument{"LpProblem: coefficient must be finite"};
  if (value == 0.0) return;
  columns_[variable].push_back(ColumnEntry{row, value});
}

void LpProblem::check_variable(std::size_t variable) const {
  if (variable >= columns_.size()) throw std::out_of_range{"LpProblem: variable out of range"};
}

void LpProblem::check_row(std::size_t row) const {
  if (row >= senses_.size()) throw std::out_of_range{"LpProblem: row out of range"};
}

double LpProblem::objective_coefficient(std::size_t variable) const {
  check_variable(variable);
  return objective_[variable];
}

const std::vector<ColumnEntry>& LpProblem::column(std::size_t variable) const {
  check_variable(variable);
  return columns_[variable];
}

RowSense LpProblem::row_sense(std::size_t row) const {
  check_row(row);
  return senses_[row];
}

double LpProblem::rhs(std::size_t row) const {
  check_row(row);
  return rhs_[row];
}

void LpProblem::consolidate() {
  for (auto& column : columns_) {
    if (column.size() < 2) continue;
    std::sort(column.begin(), column.end(),
              [](const ColumnEntry& a, const ColumnEntry& b) { return a.row < b.row; });
    std::vector<ColumnEntry> merged;
    merged.reserve(column.size());
    for (const ColumnEntry& entry : column) {
      if (!merged.empty() && merged.back().row == entry.row) {
        merged.back().value += entry.value;
      } else {
        merged.push_back(entry);
      }
    }
    std::erase_if(merged, [](const ColumnEntry& e) { return e.value == 0.0; });
    column = std::move(merged);
  }
}

}  // namespace qp::lp
