// Text input for latency matrices so users can plug in real measurements
// (e.g. actual PlanetLab ping data) in place of the synthetic generators.
//
// Format (whitespace-separated, '#' comments allowed):
//   line 1: N
//   line 2: N site names (tokens without whitespace)  [optional]
//   then:   N rows of N RTT values in milliseconds
#pragma once

#include <iosfwd>
#include <string>

#include "net/latency_matrix.hpp"

namespace qp::net {

/// Parses the format above. Throws std::runtime_error with a line-oriented
/// message on malformed input.
// qp-lint: allow(test-only-export) -- the parser behind read_matrix_file; tests feed it from memory
[[nodiscard]] LatencyMatrix read_matrix(std::istream& in);

/// Loads from a file path; throws std::runtime_error if unreadable.
[[nodiscard]] LatencyMatrix read_matrix_file(const std::string& path);

}  // namespace qp::net
