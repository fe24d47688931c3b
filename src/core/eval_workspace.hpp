// EvalWorkspace: flat, reusable scratch buffers for the placement-evaluation
// hot path. The paper's search loops (best-single-client placement, local
// search, figure sweeps) evaluate E[max over a quorum] of per-client value
// vectors millions of times; the original kernels allocated two vectors and
// sorted per client per call. The fill_* kernels below write into caller
// buffers instead, and Objective::evaluate_ws reuses one workspace across
// the whole client loop, so steady-state network-delay evaluation performs
// zero heap allocations. The kernels read any net::LatencySpace through its
// fill_rtts gather (a LatencyMatrix binds implicitly).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "core/placement.hpp"
#include "net/latency_space.hpp"

namespace qp::core {

/// Scratch buffers sized on first use and reused afterwards. One workspace
/// per thread; the buffers are plain vectors, so moving/copying is cheap to
/// reason about and a default-constructed workspace is ready to use.
struct EvalWorkspace {
  /// x_u = d(v, f(u)) + alpha * load_f(f(u)) per element.
  std::vector<double> values;
  /// d(v, f(u)) per element.
  std::vector<double> distances;
  /// Working space handed to QuorumSystem::expected_max_uniform_scratch
  /// (sort buffer for Majority, row/column maxima for Grid).
  std::vector<double> scratch;
};

/// out[u] = rtt(client, f(u)): the per-element distance vector that
/// quorum::QuorumSystem operations consume. No validation (the caller
/// validates the placement once, not per client).
void fill_element_distances(const net::LatencySpace& space, const Placement& placement,
                            std::size_t client, std::vector<double>& out);

/// Per-element response values out[u] = d(v, f(u)) + alpha * load_f(f(u));
/// with these, max over f(Q) equals max over elements of Q for any placement.
void fill_element_values(const net::LatencySpace& space, const Placement& placement,
                         std::span<const double> site_load, double alpha,
                         std::size_t client, std::vector<double>& out);

}  // namespace qp::core
