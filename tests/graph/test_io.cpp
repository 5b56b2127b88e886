#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "gen/er.hpp"
#include "graph/prepare.hpp"

namespace tcgpu::graph {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("tcgpu_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& name) const { return (dir_ / name).string(); }

  static Coo sample() { return gen::generate_er(200, 800, 5); }

  static void expect_same_edges(const Coo& a, const Coo& b) {
    EXPECT_EQ(a.num_vertices, b.num_vertices);
    ASSERT_EQ(a.edges.size(), b.edges.size());
    EXPECT_EQ(a.edges, b.edges);
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, TextEdgeListRoundTrip) {
  const Coo g = sample();
  write_text_edge_list(path("g.txt"), g);
  expect_same_edges(g, read_text_edge_list(path("g.txt")));
}

TEST_F(IoTest, TextReaderSkipsCommentsAndBlankLines) {
  std::ofstream(path("c.txt")) << "# comment\n\n% another\n0 1\n1 2\n";
  const Coo g = read_text_edge_list(path("c.txt"));
  EXPECT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.num_vertices, 3u);
}

TEST_F(IoTest, TextReaderRejectsMalformedLine) {
  std::ofstream(path("bad.txt")) << "0 1\nnot an edge\n";
  EXPECT_THROW(read_text_edge_list(path("bad.txt")), std::runtime_error);
}

TEST_F(IoTest, TextReaderRejectsHugeIds) {
  std::ofstream(path("huge.txt")) << "0 8589934592\n";  // 2^33
  EXPECT_THROW(read_text_edge_list(path("huge.txt")), std::runtime_error);
}

TEST_F(IoTest, MissingFileThrows) {
  EXPECT_THROW(read_text_edge_list(path("nope.txt")), std::runtime_error);
  EXPECT_THROW(read_binary_edge_list(path("nope.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryEdgeListRoundTrip) {
  const Coo g = sample();
  write_binary_edge_list(path("g.bin"), g);
  expect_same_edges(g, read_binary_edge_list(path("g.bin")));
}

TEST_F(IoTest, BinaryEdgeListRejectsBadMagic) {
  std::ofstream(path("bad.bin"), std::ios::binary) << "JUNKJUNKJUNKJUNK";
  EXPECT_THROW(read_binary_edge_list(path("bad.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryEdgeListRejectsTruncation) {
  const Coo g = sample();
  write_binary_edge_list(path("g.bin"), g);
  std::filesystem::resize_file(path("g.bin"), 24);
  EXPECT_THROW(read_binary_edge_list(path("g.bin")), std::runtime_error);
}

TEST_F(IoTest, BinaryCsrRoundTrip) {
  const Csr g = build_undirected_csr(clean_edges(sample()));
  write_binary_csr(path("g.csr"), g);
  EXPECT_EQ(g, read_binary_csr(path("g.csr")));
}

TEST_F(IoTest, BinaryCsrRoundTripsEmptyGraph) {
  const Csr empty;  // V = 0, row_ptr = {0}
  write_binary_csr(path("e.csr"), empty);
  const Csr back = read_binary_csr(path("e.csr"));
  EXPECT_EQ(back.num_vertices(), 0u);
  EXPECT_EQ(back.num_edges(), 0u);
  EXPECT_EQ(empty, back);
}

TEST_F(IoTest, BinaryCsrRoundTripsSingleEdge) {
  Coo g;
  g.num_vertices = 2;
  g.edges = {{0, 1}};
  const Csr csr = build_undirected_csr(clean_edges(g));
  write_binary_csr(path("s.csr"), csr);
  const Csr back = read_binary_csr(path("s.csr"));
  EXPECT_EQ(back.num_vertices(), 2u);
  EXPECT_EQ(back.num_edges(), 2u);  // undirected: stored both ways
  EXPECT_EQ(csr, back);
}

TEST_F(IoTest, MatrixMarketRoundTrip) {
  const Coo g = sample();
  write_matrix_market(path("g.mtx"), g);
  expect_same_edges(g, read_matrix_market(path("g.mtx")));
}

TEST_F(IoTest, MatrixMarketRejectsMissingBanner) {
  std::ofstream(path("bad.mtx")) << "3 3 1\n1 2\n";
  EXPECT_THROW(read_matrix_market(path("bad.mtx")), std::runtime_error);
}

TEST_F(IoTest, MatrixMarketRejectsZeroBasedEntries) {
  std::ofstream(path("zero.mtx"))
      << "%%MatrixMarket matrix coordinate pattern general\n3 3 1\n0 2\n";
  EXPECT_THROW(read_matrix_market(path("zero.mtx")), std::runtime_error);
}

TEST_F(IoTest, EmptyGraphRoundTripsEverywhere) {
  const Coo g{};
  write_text_edge_list(path("e.txt"), g);
  EXPECT_EQ(read_text_edge_list(path("e.txt")).edges.size(), 0u);
  write_binary_edge_list(path("e.bin"), g);
  EXPECT_EQ(read_binary_edge_list(path("e.bin")).edges.size(), 0u);
  write_matrix_market(path("e.mtx"), g);
  EXPECT_EQ(read_matrix_market(path("e.mtx")).edges.size(), 0u);
}

TEST_F(IoTest, TextReaderHandlesCrlfLineEndings) {
  std::ofstream(path("crlf.txt"), std::ios::binary)
      << "# comment\r\n0 1\r\n\r\n% note\r\n1 2\r\n";
  const Coo g = read_text_edge_list(path("crlf.txt"));
  EXPECT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[0], Edge(0, 1));
  EXPECT_EQ(g.edges[1], Edge(1, 2));
}

TEST_F(IoTest, TextReaderHandlesMissingFinalNewlineAndTabs) {
  std::ofstream(path("tail.txt")) << "0\t1\n  2   3";  // no trailing \n
  const Coo g = read_text_edge_list(path("tail.txt"));
  ASSERT_EQ(g.edges.size(), 2u);
  EXPECT_EQ(g.edges[1], Edge(2, 3));
}

TEST_F(IoTest, TextReaderPreservesDuplicateAndReversedEdges) {
  // The reader is a verbatim loader: dedup/canonicalization is the prepare
  // pipeline's job, so duplicates and reversals must survive loading.
  std::ofstream(path("dup.txt")) << "0 1\n1 0\n0 1\n2 1\n";
  const Coo g = read_text_edge_list(path("dup.txt"));
  const std::vector<Edge> want = {{0, 1}, {1, 0}, {0, 1}, {2, 1}};
  EXPECT_EQ(g.edges, want);
}

TEST_F(IoTest, TextReaderErrorNamesTheOffendingLine) {
  std::ofstream(path("bad2.txt")) << "0 1\n# fine\n3,4\n5 6\n";
  try {
    read_text_edge_list(path("bad2.txt"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, TextReaderReportsTheEarliestMalformedLine) {
  // Spread malformed lines across a file big enough to split into multiple
  // parse chunks; the reported line must be the first one in file order,
  // regardless of which chunk's thread trips first.
  {
    std::ofstream out(path("big.txt"));
    for (int i = 0; i < 300'000; ++i) {
      if (i == 123'456 || i == 250'000) {
        out << "oops\n";
      } else {
        out << i % 971 << ' ' << i % 877 << '\n';
      }
    }
  }
  try {
    read_text_edge_list(path("big.txt"));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 123457"), std::string::npos)
        << e.what();
  }
}

TEST_F(IoTest, TextReaderMultiChunkMatchesSmallFileParse) {
  // > 1 MiB so the chunked reader actually splits; content round-trips.
  Coo g;
  g.num_vertices = 100'000;
  for (std::uint32_t i = 0; i < 200'000; ++i) {
    g.edges.emplace_back(i % 100'000, (i * 7 + 13) % 100'000);
  }
  write_text_edge_list(path("big2.txt"), g);
  expect_same_edges(g, read_text_edge_list(path("big2.txt")));
}

TEST_F(IoTest, BinaryEdgeListSourceStreamsAndSkips) {
  const Coo g = sample();
  write_binary_edge_list(path("g.bin"), g);
  BinaryEdgeListSource src(path("g.bin"));
  EXPECT_EQ(src.num_vertices(), g.num_vertices);
  EXPECT_EQ(src.num_edges(), static_cast<EdgeCount>(g.edges.size()));

  std::vector<Edge> buf(10);
  ASSERT_EQ(src.next(buf), 10u);
  EXPECT_TRUE(std::equal(buf.begin(), buf.end(), g.edges.begin()));
  EXPECT_EQ(src.skip(5), 5);
  ASSERT_EQ(src.next({buf.data(), 1}), 1u);
  EXPECT_EQ(buf[0], g.edges[15]);
  // Over-skip clamps at end of stream; next() then reports exhaustion.
  EXPECT_EQ(src.skip(static_cast<EdgeCount>(g.edges.size())),
            static_cast<EdgeCount>(g.edges.size()) - 16);
  EXPECT_EQ(src.next(buf), 0u);
}

TEST_F(IoTest, BinaryEdgeListSourceRejectsTruncatedPayload) {
  const Coo g = sample();
  write_binary_edge_list(path("t.bin"), g);
  std::filesystem::resize_file(path("t.bin"),
                               std::filesystem::file_size(path("t.bin")) - 3);
  BinaryEdgeListSource src(path("t.bin"));
  std::vector<Edge> buf(g.edges.size());
  EXPECT_THROW(src.next(buf), std::runtime_error);
}

TEST_F(IoTest, LoadEdgeStreamWithinCapIsVerbatim) {
  const Coo g = sample();
  write_binary_edge_list(path("g.bin"), g);
  BinaryEdgeListSource src(path("g.bin"));
  const StreamLoadResult res = load_edge_stream(src, g.edges.size() + 10);
  EXPECT_FALSE(res.downsampled);
  EXPECT_EQ(res.edges_seen, static_cast<EdgeCount>(g.edges.size()));
  expect_same_edges(g, res.graph);
}

TEST_F(IoTest, LoadEdgeStreamDownsamplesDeterministically) {
  const Coo g = gen::generate_er(500, 5'000, 3);
  write_binary_edge_list(path("g.bin"), g);

  auto load = [&](std::uint64_t seed) {
    BinaryEdgeListSource src(path("g.bin"));
    return load_edge_stream(src, 800, seed);
  };
  const StreamLoadResult a = load(42);
  EXPECT_TRUE(a.downsampled);
  EXPECT_EQ(a.edges_seen, static_cast<EdgeCount>(g.edges.size()));
  ASSERT_EQ(a.graph.edges.size(), 800u);
  for (const auto& [u, v] : a.graph.edges) {
    EXPECT_LT(u, a.graph.num_vertices);
    EXPECT_LT(v, a.graph.num_vertices);
  }

  const StreamLoadResult b = load(42);
  EXPECT_EQ(a.graph.edges, b.graph.edges);  // same seed, same sample
  const StreamLoadResult c = load(43);
  EXPECT_NE(a.graph.edges, c.graph.edges);  // different seed, different sample
}

TEST_F(IoTest, LoadEdgeStreamZeroCapConsumesNothing) {
  const Coo g = sample();
  write_binary_edge_list(path("g.bin"), g);
  BinaryEdgeListSource src(path("g.bin"));
  const StreamLoadResult res = load_edge_stream(src, 0);
  EXPECT_TRUE(res.graph.edges.empty());
  EXPECT_EQ(res.graph.num_vertices, 0u);
  EXPECT_EQ(res.edges_seen, 0);
  EXPECT_FALSE(res.downsampled);
}

}  // namespace
}  // namespace tcgpu::graph
