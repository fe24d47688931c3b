// QuorumSystem::quorums(): the one explicit quorum table per system. Checked
// against the independent enumerations in support/quorum_enumeration.hpp
// (same quorums, same order), its incidence lists against the members'
// transpose, its sharing across calls and copies, its single enumeration
// limit, and its first use from several threads at once.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/thread_pool.hpp"
#include "quorum/fpp.hpp"
#include "quorum/grid.hpp"
#include "quorum/majority.hpp"
#include "quorum/singleton.hpp"
#include "quorum/tree.hpp"
#include "support/quorum_enumeration.hpp"

namespace qp::quorum {
namespace {

struct TableCase {
  std::string label;
  /// A fresh copy of one prototype per call, so two calls are copies of one
  /// system.
  std::function<std::unique_ptr<QuorumSystem>()> copy;
};

void PrintTo(const TableCase& c, std::ostream* os) { *os << c.label; }

template <typename System>
TableCase table_case(std::string label, System system) {
  return {std::move(label), [system] { return std::make_unique<System>(system); }};
}

std::vector<TableCase> table_cases() {
  std::vector<TableCase> cases;
  cases.push_back(table_case("Singleton", SingletonQuorum{}));
  // The families at t = 1, 3, 5; simple majority at t = 3 is Majority(7,4).
  for (MajorityFamily family : {MajorityFamily::SimpleMajority, MajorityFamily::ByzantineMajority,
                                MajorityFamily::QuThreshold}) {
    for (std::size_t t : {1u, 3u, 5u}) {
      const MajorityQuorum majority = make_majority(family, t);
      cases.push_back(table_case(
          "Majority_" + std::to_string(majority.quorum_size()) + "of" +
              std::to_string(majority.universe_size()),
          majority));
    }
  }
  for (std::size_t k = 1; k <= 7; ++k) {
    cases.push_back(table_case("Grid" + std::to_string(k), GridQuorum{k}));
  }
  for (std::size_t q : {2u, 3u, 5u}) {
    cases.push_back(table_case("FPP" + std::to_string(q), FppQuorum{q}));
  }
  for (std::size_t h = 0; h <= 4; ++h) {
    cases.push_back(table_case("TreeH" + std::to_string(h), TreeQuorum{h}));
  }
  return cases;
}

class QuorumTableOracle : public ::testing::TestWithParam<TableCase> {
 protected:
  std::unique_ptr<QuorumSystem> system_ = GetParam().copy();
};

TEST_P(QuorumTableOracle, MatchesOracleQuorumsInOrder) {
  const QuorumTable& table = system_->quorums();
  EXPECT_EQ(table.universe_size(), system_->universe_size());
  EXPECT_EQ(static_cast<double>(table.size()), system_->quorum_count());
  EXPECT_EQ(test_support::quorum_list(table), test_support::oracle_quorums(*system_));
}

TEST_P(QuorumTableOracle, IncidenceIsTheExactTransposeOfTheMembers) {
  const QuorumTable& table = system_->quorums();
  std::vector<std::vector<std::uint32_t>> transpose(table.universe_size());
  for (std::size_t q = 0; q < table.size(); ++q) {
    for (std::uint32_t u : table[q]) transpose[u].push_back(static_cast<std::uint32_t>(q));
  }
  for (std::size_t u = 0; u < table.universe_size(); ++u) {
    const std::span<const std::uint32_t> incident = table.incident(u);
    EXPECT_EQ(std::vector<std::uint32_t>(incident.begin(), incident.end()), transpose[u])
        << "element " << u;
  }
}

TEST_P(QuorumTableOracle, CallsAndCopiesShareOneTable) {
  const QuorumTable& table = system_->quorums();
  EXPECT_EQ(&system_->quorums(), &table);
  EXPECT_EQ(system_->shared_quorums().get(), &table);
  const std::unique_ptr<QuorumSystem> copy = GetParam().copy();
  EXPECT_EQ(&copy->quorums(), &table);
}

INSTANTIATE_TEST_SUITE_P(BuiltIn, QuorumTableOracle, ::testing::ValuesIn(table_cases()),
                         [](const auto& info) { return info.param.label; });

TEST(QuorumTable, ThrowsAboveTheEnumerationLimit) {
  const MajorityQuorum majority{49, 25};
  EXPECT_FALSE(majority.enumerable());
  EXPECT_THROW((void)majority.quorums(), std::domain_error);
  EXPECT_THROW((void)majority.shared_quorums(), std::domain_error);
}

TEST(QuorumTable, ConcurrentFirstUseBuildsOneTable) {
  // Eight workers race for the first quorums() call on a fresh system; all
  // must get the one table, built once.
  const TreeQuorum tree{4};
  std::vector<const QuorumTable*> seen(8, nullptr);
  common::ThreadPool pool{8};
  pool.parallel_for(0, seen.size(), [&](std::size_t i) { seen[i] = &tree.quorums(); });
  for (const QuorumTable* table : seen) EXPECT_EQ(table, &tree.quorums());
  EXPECT_EQ(tree.quorums().size(), 65535u);
}

}  // namespace
}  // namespace qp::quorum
