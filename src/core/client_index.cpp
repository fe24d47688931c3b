#include "core/client_index.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

namespace qp::core {
namespace {

/// Uncapped coverage slack: lists cover radius[v] * kMargin, so m1 can grow
/// this much across moves before the client falls into the always-checked
/// overflow set.
constexpr double kMargin = 1.25;
static_assert(kMargin >= 1.0, "ClientCandidateIndex: margin must be >= 1");
/// Uncapped lists never hold fewer than this many sites (when n allows).
constexpr std::size_t kMinSites = 8;

}  // namespace

ClientCandidateIndex ClientCandidateIndex::build(const net::LatencySpace& space,
                                                 const net::KnnIndex* knn,
                                                 std::span<const double> radius,
                                                 const Config& config) {
  const std::size_t n = space.size();
  if (!radius.empty() && radius.size() != n) {
    throw std::invalid_argument{"ClientCandidateIndex: radius count != site count"};
  }
  std::optional<net::KnnIndex> local;
  if (knn == nullptr) {
    const net::LatencyMatrix* matrix = space.as_matrix();
    if (matrix == nullptr) {
      throw std::invalid_argument{
          "ClientCandidateIndex: an implicit LatencySpace needs a KnnIndex"};
    }
    local.emplace(*matrix);
    knn = &*local;
  }
  if (knn->size() != n) {
    throw std::invalid_argument{"ClientCandidateIndex: KnnIndex size != space size"};
  }

  ClientCandidateIndex out;
  out.capped_ = config.cap > 0;
  out.radius_.resize(n);
  out.offsets_.assign(n + 1, 0);
  std::vector<net::KnnIndex::Neighbor> buf;
  for (std::size_t v = 0; v < n; ++v) {
    if (out.capped_) {
      knn->nearest(v, config.cap, buf);
      out.radius_[v] = buf.empty() ? 0.0 : buf.back().rtt_ms;
    } else {
      const double cover = (radius.empty() ? 0.0 : radius[v]) * kMargin;
      knn->within(v, cover, buf);
      if (buf.size() < std::min(kMinSites, n)) {
        // The min-size floor subsumes the radius query: fewer than
        // kMinSites sites lie within `cover`, so the kMinSites nearest
        // contain all of them.
        knn->nearest(v, kMinSites, buf);
      }
      out.radius_[v] = cover;
    }
    // Lists store site ids ascending — candidate enumeration and the
    // inverted index never depend on distance order.
    std::sort(buf.begin(), buf.end(),
              [](const net::KnnIndex::Neighbor& a, const net::KnnIndex::Neighbor& b) {
                return a.site < b.site;
              });
    for (const auto& nb : buf) out.sites_.push_back(nb.site);
    out.offsets_[v + 1] = out.sites_.size();
  }

  // Invert: counting pass, prefix offsets, fill. Filling in ascending
  // client order makes each clients_of(site) ascending.
  out.inv_offsets_.assign(n + 1, 0);
  for (std::size_t s : out.sites_) ++out.inv_offsets_[s + 1];
  for (std::size_t s = 0; s < n; ++s) out.inv_offsets_[s + 1] += out.inv_offsets_[s];
  out.inv_clients_.resize(out.sites_.size());
  std::vector<std::size_t> cursor(out.inv_offsets_.begin(), out.inv_offsets_.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = out.offsets_[v]; i < out.offsets_[v + 1]; ++i) {
      out.inv_clients_[cursor[out.sites_[i]]++] = v;
    }
  }
  return out;
}

std::span<const std::size_t> ClientCandidateIndex::sites_of(std::size_t client) const {
  if (client >= size()) {
    throw std::out_of_range{"ClientCandidateIndex::sites_of: client out of range"};
  }
  return {sites_.data() + offsets_[client], offsets_[client + 1] - offsets_[client]};
}

double ClientCandidateIndex::covered_radius(std::size_t client) const {
  if (client >= size()) {
    throw std::out_of_range{"ClientCandidateIndex::covered_radius: client out of range"};
  }
  return radius_[client];
}

std::span<const std::size_t> ClientCandidateIndex::clients_of(std::size_t site) const {
  if (site >= size()) {
    throw std::out_of_range{"ClientCandidateIndex::clients_of: site out of range"};
  }
  return {inv_clients_.data() + inv_offsets_[site],
          inv_offsets_[site + 1] - inv_offsets_[site]};
}

}  // namespace qp::core
