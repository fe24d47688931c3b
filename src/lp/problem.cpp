#include "lp/problem.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace qp::lp {

std::size_t LpProblem::add_variable(double objective_coefficient, std::string name) {
  if (!std::isfinite(objective_coefficient)) {
    throw std::invalid_argument{"LpProblem: objective coefficient must be finite"};
  }
  columns_.emplace_back();
  objective_.push_back(objective_coefficient);
  if (!name.empty()) {
    variable_names_.resize(columns_.size());
    variable_names_.back() = std::move(name);
  }
  return columns_.size() - 1;
}

std::size_t LpProblem::add_row(RowSense sense, double rhs, std::string name) {
  if (!std::isfinite(rhs)) throw std::invalid_argument{"LpProblem: rhs must be finite"};
  senses_.push_back(sense);
  rhs_.push_back(rhs);
  if (!name.empty()) {
    row_names_.resize(senses_.size());
    row_names_.back() = std::move(name);
  }
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

std::string LpProblem::variable_name(std::size_t variable) const {
  check_variable(variable);
  if (variable < variable_names_.size() && !variable_names_[variable].empty()) {
    return variable_names_[variable];
  }
  return "x" + std::to_string(variable);
}

std::string LpProblem::row_name(std::size_t row) const {
  check_row(row);
  if (row < row_names_.size() && !row_names_[row].empty()) return row_names_[row];
  return "r" + std::to_string(row);
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

double LpProblem::objective_value(const std::vector<double>& x) const {
  if (x.size() != columns_.size()) throw std::invalid_argument{"objective_value: size mismatch"};
  double total = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) total += objective_[j] * x[j];
  return total;
}

double LpProblem::max_violation(const std::vector<double>& x) const {
  if (x.size() != columns_.size()) throw std::invalid_argument{"max_violation: size mismatch"};
  std::vector<double> activity(row_count(), 0.0);
  double worst = 0.0;
  for (std::size_t j = 0; j < x.size(); ++j) {
    worst = std::max(worst, -x[j]);  // Sign constraint x >= 0.
    for (const ColumnEntry& entry : columns_[j]) activity[entry.row] += entry.value * x[j];
  }
  for (std::size_t i = 0; i < row_count(); ++i) {
    const double gap = activity[i] - rhs_[i];
    switch (senses_[i]) {
      case RowSense::LessEqual:
        worst = std::max(worst, gap);
        break;
      case RowSense::Equal:
        worst = std::max(worst, std::abs(gap));
        break;
      case RowSense::GreaterEqual:
        worst = std::max(worst, -gap);
        break;
    }
  }
  return worst;
}

}  // namespace qp::lp
