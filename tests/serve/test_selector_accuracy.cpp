// Selector-accuracy regression gate (slow): runs the twelve-kernel
// selection pool x dataset grid at the default edge cap and asserts the
// shipped cost model keeps routing near-optimal — the chosen kernel's
// measured time within 10% of the per-graph best on at least 17 of the 19
// pinned datasets, with the paper's GroupTC/TRUST small-vs-large crossover
// reproduced. If a kernel or simulator change shifts the landscape, rerun
// bench/selector_fit and refresh Selector::default_models().
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>

#include "framework/engine.hpp"
#include "serve/selector.hpp"

namespace tcgpu::serve {
namespace {

struct Grid {
  std::vector<framework::SweepRow> rows;
  Selector selector;

  Grid()
      : selector(Selector::Config{simt::GpuSpec::v100(), /*refine=*/false}) {
    framework::Engine::Config cfg;  // defaults = the pinned suite
    framework::Engine engine(cfg);
    std::ostringstream progress;
    rows = engine.sweep(framework::pool_algorithms(), progress);
    EXPECT_TRUE(engine.all_valid());
  }

  double measured(const framework::SweepRow& row, const std::string& algo) const {
    for (const auto& out : row.outcomes) {
      if (out.algorithm == algo) return out.result.total.time_ms;
    }
    ADD_FAILURE() << algo << " missing from sweep";
    return 0.0;
  }

  double best(const framework::SweepRow& row) const {
    double t = row.outcomes.front().result.total.time_ms;
    for (const auto& out : row.outcomes) t = std::min(t, out.result.total.time_ms);
    return t;
  }
};

const Grid& grid() {
  static Grid g;  // one sweep shared by every case in this binary
  return g;
}

TEST(SelectorAccuracy, PicksWithinTenPercentOfBestOnMostOfTheSuite) {
  const auto& g = grid();
  ASSERT_EQ(g.rows.size(), 19u);
  std::size_t within = 0;
  std::string misses;
  for (const auto& row : g.rows) {
    const auto pick = g.selector.choose(row.graph->stats);
    const double ratio = g.measured(row, pick.algorithm) / g.best(row);
    if (ratio <= 1.10) {
      ++within;
    } else {
      misses += " " + row.graph->name + "(" + pick.algorithm + ")";
    }
  }
  // >= 17 of 19 datasets over the enlarged pool; misses listed for the log.
  EXPECT_GE(within, 17u) << "near-optimal on only " << within
                         << "/19; misses:" << misses;
}

TEST(SelectorAccuracy, ChosenKernelAlwaysValidatesAndNeverDisastrous) {
  const auto& g = grid();
  for (const auto& row : g.rows) {
    const auto pick = g.selector.choose(row.graph->stats);
    for (const auto& out : row.outcomes) {
      if (out.algorithm == pick.algorithm) {
        EXPECT_TRUE(out.valid);
      }
    }
    // Even a miss must not route to a pathological kernel.
    EXPECT_LE(g.measured(row, pick.algorithm) / g.best(row), 1.5)
        << row.graph->name;
  }
}

TEST(SelectorAccuracy, GroupTcTrustCrossoverMatchesMeasurement) {
  const auto& g = grid();
  auto modeled = [&](const framework::SweepRow& row, const char* algo) {
    for (const auto& c : g.selector.score(row.graph->stats)) {
      if (c.algorithm == algo) return c.cost.modeled_ms;
    }
    ADD_FAILURE() << algo << " not scored";
    return 0.0;
  };
  const framework::SweepRow* small = nullptr;
  const framework::SweepRow* large = nullptr;
  for (const auto& row : g.rows) {
    if (row.graph->name == "As-Caida") small = &row;
    if (row.graph->name == "Web-BerkStan") large = &row;
  }
  ASSERT_NE(small, nullptr);
  ASSERT_NE(large, nullptr);
  // Measured: GroupTC wins the small graph, TRUST the large one...
  EXPECT_LT(g.measured(*small, "GroupTC"), g.measured(*small, "TRUST"));
  EXPECT_LT(g.measured(*large, "TRUST"), g.measured(*large, "GroupTC"));
  // ...and the a-priori model reproduces both sides of the crossover.
  EXPECT_LT(modeled(*small, "GroupTC"), modeled(*small, "TRUST"));
  EXPECT_LT(modeled(*large, "TRUST"), modeled(*large, "GroupTC"));
}

TEST(SelectorAccuracy, CanonicalPicksArePinned) {
  // The three routing decisions CI pins in the serve smoke job. If these
  // move after an intentional model refresh, update .github/workflows/ci.yml
  // and the README table alongside this test.
  const std::map<std::string, std::string> pinned = {
      {"As-Caida", "Polak"},   // small, low degree: single-kernel merge
      {"Soc-Pokec", "BSR"},    // mid-size: compressed rows beat TRUST's hash
      {"Com-Orkut", "BSR"},    // densest: 32x row compression dominates
  };
  const auto& g = grid();
  for (const auto& row : g.rows) {
    const auto it = pinned.find(row.graph->name);
    if (it == pinned.end()) continue;
    EXPECT_EQ(g.selector.choose(row.graph->stats).algorithm, it->second)
        << row.graph->name;
  }
}

TEST(SelectorAccuracy, EveryLibraryKernelEarnsItsPoolSlot) {
  // No single kernel wins everywhere (§V), so the pool keeps the kernels
  // that win somewhere: each one beyond the paper's nine must measure best,
  // or within 10% of best, on at least one dataset of the suite.
  const auto& g = grid();
  const auto& paper = framework::all_algorithms();
  for (const auto& e : framework::pool_algorithms()) {
    if (std::any_of(paper.begin(), paper.end(),
                    [&](const auto& p) { return p.name == e.name; })) {
      continue;
    }
    double closest = std::numeric_limits<double>::infinity();
    for (const auto& row : g.rows) {
      closest = std::min(closest, g.measured(row, e.name) / g.best(row));
    }
    EXPECT_LE(closest, 1.10) << e.name << " is never within 10% of the best";
  }
}

}  // namespace
}  // namespace tcgpu::serve
