// CompressedCsr (graph/csr.hpp): LEB128 delta adjacency round-trips, varint
// width boundaries, and the contract violations the encoder rejects.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "gen/er.hpp"
#include "graph/csr.hpp"
#include "graph/prepare.hpp"

namespace tcgpu::graph {
namespace {

Csr csr_of_rows(const std::vector<std::vector<VertexId>>& rows) {
  std::vector<EdgeIndex> row_ptr(rows.size() + 1, 0);
  std::vector<VertexId> col;
  for (std::size_t v = 0; v < rows.size(); ++v) {
    col.insert(col.end(), rows[v].begin(), rows[v].end());
    row_ptr[v + 1] = static_cast<EdgeIndex>(col.size());
  }
  return Csr(std::move(row_ptr), std::move(col));
}

TEST(CompressedCsr, RoundTripsSmallRows) {
  const Csr g = csr_of_rows({{1, 2, 5}, {3}, {}, {4, 1000, 1000000}, {}});
  EXPECT_EQ(CompressedCsr::compress(g).decompress(), g);
}

TEST(CompressedCsr, RoundTripsEmptyGraph) {
  const Csr g = csr_of_rows({});
  const CompressedCsr c = CompressedCsr::compress(g);
  EXPECT_EQ(c.decompress(), g);
  EXPECT_EQ(c.num_edges(), 0u);
  EXPECT_TRUE(c.data().empty());
}

TEST(CompressedCsr, RoundTripsVarintWidthBoundaries) {
  // Encoded value is gap-1, so gaps of 128/129 and 16384/16385 straddle the
  // 1->2 and 2->3 byte LEB128 boundaries; the base (first neighbor) is raw.
  std::vector<VertexId> row;
  VertexId v = 7;
  for (const VertexId gap : {1u, 127u, 128u, 129u, 16383u, 16384u, 16385u,
                             (1u << 21), (1u << 28)}) {
    v += gap;
    row.push_back(v);
  }
  const Csr g = csr_of_rows({{}, row});
  EXPECT_EQ(CompressedCsr::compress(g).decompress(), g);
}

TEST(CompressedCsr, RoundTripsMaxVertexId) {
  const Csr g = csr_of_rows({{0xFFFFFFFEu}, {0, 0xFFFFFFFEu}});
  EXPECT_EQ(CompressedCsr::compress(g).decompress(), g);
}

TEST(CompressedCsr, DenseRowsCompressBelowRawBytes) {
  // Gap-1 deltas of a contiguous run are all zero: one byte per neighbor
  // after the base, vs 4 raw.
  std::vector<VertexId> run(1000);
  for (VertexId i = 0; i < 1000; ++i) run[i] = 10 + i;
  const Csr g = csr_of_rows({run});
  const CompressedCsr c = CompressedCsr::compress(g);
  EXPECT_LT(c.adjacency_bytes(), static_cast<std::uint64_t>(g.num_edges()) * 4);
  EXPECT_EQ(c.decompress(), g);
}

TEST(CompressedCsr, RejectsUnsortedAndDuplicateRows) {
  EXPECT_THROW(CompressedCsr::compress(csr_of_rows({{2, 1}})),
               std::invalid_argument);
  EXPECT_THROW(CompressedCsr::compress(csr_of_rows({{1, 1}})),
               std::invalid_argument);
}

TEST(CompressedCsr, RoundTripsAPreparedDag) {
  Coo raw = gen::generate_er(500, 4'000, 21);
  const PreparedDag prepared = prepare_dag(std::move(raw));
  EXPECT_EQ(CompressedCsr::compress(prepared.dag).decompress(), prepared.dag);
}

TEST(VarintAppend, EncodesCanonicalLeb128) {
  std::vector<std::uint8_t> buf;
  varint_append(buf, 0);
  varint_append(buf, 127);
  varint_append(buf, 128);
  varint_append(buf, 300);
  const std::vector<std::uint8_t> want = {0x00, 0x7F, 0x80, 0x01, 0xAC, 0x02};
  EXPECT_EQ(buf, want);
}

}  // namespace
}  // namespace tcgpu::graph
