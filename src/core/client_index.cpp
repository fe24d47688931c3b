#include "core/client_index.hpp"

#include <algorithm>
#include <stdexcept>

namespace qp::core {

ClientCandidateIndex ClientCandidateIndex::build(const net::KnnIndex& knn, std::size_t cap) {
  if (cap == 0) {
    throw std::invalid_argument{"ClientCandidateIndex: cap must be positive"};
  }
  const std::size_t n = knn.size();
  // Forward lists (CSR, clients + 1 offsets): only the inversion below
  // reads them.
  std::vector<std::size_t> offsets(n + 1, 0);
  std::vector<std::size_t> sites;
  std::vector<net::KnnIndex::Neighbor> buf;
  for (std::size_t v = 0; v < n; ++v) {
    knn.nearest(v, cap, buf);
    // Lists store site ids ascending — candidate enumeration and the
    // inverted index never depend on distance order.
    std::sort(buf.begin(), buf.end(),
              [](const net::KnnIndex::Neighbor& a, const net::KnnIndex::Neighbor& b) {
                return a.site < b.site;
              });
    for (const auto& nb : buf) sites.push_back(nb.site);
    offsets[v + 1] = sites.size();
  }

  // Invert: counting pass, prefix offsets, fill. Filling in ascending
  // client order makes each clients_of(site) ascending.
  ClientCandidateIndex out;
  out.inv_offsets_.assign(n + 1, 0);
  for (std::size_t s : sites) ++out.inv_offsets_[s + 1];
  for (std::size_t s = 0; s < n; ++s) out.inv_offsets_[s + 1] += out.inv_offsets_[s];
  out.inv_clients_.resize(sites.size());
  std::vector<std::size_t> cursor(out.inv_offsets_.begin(), out.inv_offsets_.end() - 1);
  for (std::size_t v = 0; v < n; ++v) {
    for (std::size_t i = offsets[v]; i < offsets[v + 1]; ++i) {
      out.inv_clients_[cursor[sites[i]]++] = v;
    }
  }
  return out;
}

std::span<const std::size_t> ClientCandidateIndex::clients_of(std::size_t site) const {
  if (site >= size()) {
    throw std::out_of_range{"ClientCandidateIndex::clients_of: site out of range"};
  }
  return {inv_clients_.data() + inv_offsets_[site],
          inv_offsets_[site + 1] - inv_offsets_[site]};
}

}  // namespace qp::core
