#include "framework/registry.hpp"

#include <gtest/gtest.h>

namespace tcgpu::framework {
namespace {

TEST(Registry, HasAllNineAlgorithms) {
  const auto& all = all_algorithms();
  ASSERT_EQ(all.size(), 9u);
  // Table I order (publication year), GroupTC appended.
  EXPECT_EQ(all.front().name, "Green");
  EXPECT_EQ(all[7].name, "TRUST");
  EXPECT_EQ(all.back().name, "GroupTC");
}

TEST(Registry, FactoriesProduceWorkingCounters) {
  for (const auto& e : all_algorithms()) {
    const auto algo = e.make();
    ASSERT_NE(algo, nullptr);
    EXPECT_EQ(algo->name(), e.name);
  }
}

TEST(Registry, TraitsMatchTableOne) {
  const auto check = [](const std::string& name, const std::string& iterator,
                        const std::string& intersection,
                        const std::string& granularity, int year) {
    const auto t = make_algorithm(name)->traits();
    EXPECT_EQ(t.iterator, iterator) << name;
    EXPECT_EQ(t.intersection, intersection) << name;
    EXPECT_EQ(t.granularity, granularity) << name;
    EXPECT_EQ(t.year, year) << name;
  };
  check("Green", "edge", "Merge", "fine", 2014);
  check("Polak", "edge", "Merge", "coarse", 2016);
  check("Bisson", "vertex", "BitMap", "coarse", 2017);
  check("TriCore", "edge", "Bin-Search", "fine", 2018);
  check("Fox", "edge", "Merge/Bin-Search", "fine", 2018);
  check("Hu", "vertex", "Bin-Search", "fine", 2019);
  check("H-INDEX", "edge", "Hash", "fine", 2019);
  check("TRUST", "vertex", "Hash", "fine", 2021);
  check("GroupTC", "edge", "Bin-Search", "fine", 2024);
}

TEST(Registry, HeadlineTrioForFigure15) {
  const auto& trio = headline_algorithms();
  ASSERT_EQ(trio.size(), 3u);
  EXPECT_EQ(trio[0].name, "Polak");
  EXPECT_EQ(trio[1].name, "TRUST");
  EXPECT_EQ(trio[2].name, "GroupTC");
}

TEST(Registry, ExtendedSetAppendsVariantsAndLibraryKernels) {
  const auto& ext = extended_algorithms();
  ASSERT_EQ(ext.size(), all_algorithms().size() + 4);
  EXPECT_EQ(ext[all_algorithms().size()].name, "GroupTC-H");
  EXPECT_EQ(ext[all_algorithms().size() + 1].name, "BSR");
  EXPECT_EQ(ext[all_algorithms().size() + 2].name, "CMerge");
  EXPECT_EQ(ext.back().name, "CStage");
  const auto algo = make_algorithm("GroupTC-H");
  EXPECT_EQ(algo->traits().intersection, "Hash");
}

TEST(Registry, LibraryKernelTraitsFillTaxonomyCells) {
  const auto check = [](const std::string& name, const std::string& iterator,
                        const std::string& intersection,
                        const std::string& granularity, int year) {
    const auto t = make_algorithm(name)->traits();
    EXPECT_EQ(t.iterator, iterator) << name;
    EXPECT_EQ(t.intersection, intersection) << name;
    EXPECT_EQ(t.granularity, granularity) << name;
    EXPECT_EQ(t.year, year) << name;
  };
  check("BSR", "vertex", "BitMap", "coarse", 2019);
  // The compressed-CSR decoders stay in the merge family: decode is a
  // sequential stream read, the same access shape the merge loop already has.
  check("CMerge", "vertex", "Merge", "coarse", 2024);
  check("CStage", "vertex", "Merge", "coarse", 2024);
}

TEST(Registry, PoolIsPaperNinePlusLibraryKernels) {
  const auto& pool = pool_algorithms();
  ASSERT_EQ(pool.size(), all_algorithms().size() + 3);
  for (std::size_t i = 0; i < all_algorithms().size(); ++i) {
    EXPECT_EQ(pool[i].name, all_algorithms()[i].name);
  }
  EXPECT_EQ(pool.back().name, "CStage");
  // GroupTC-H is an ablation variant, not a selectable kernel.
  for (const auto& e : pool) EXPECT_NE(e.name, "GroupTC-H");
}

TEST(Registry, NamePredicateAndValidListAgree) {
  EXPECT_TRUE(is_algorithm_name("Polak"));
  EXPECT_TRUE(is_algorithm_name("BSR"));
  EXPECT_FALSE(is_algorithm_name("cuGraph"));
  const auto& list = valid_algorithm_list();
  for (const auto& e : extended_algorithms()) {
    EXPECT_NE(list.find(e.name), std::string::npos) << e.name;
  }
}

TEST(Registry, UnknownNameThrows) {
  EXPECT_THROW(make_algorithm("cuGraph"), std::out_of_range);
}

}  // namespace
}  // namespace tcgpu::framework
