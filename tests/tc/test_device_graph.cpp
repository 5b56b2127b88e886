#include "tc/device_graph.hpp"

#include <gtest/gtest.h>

#include "graph/prepare.hpp"

namespace tcgpu::tc {
namespace {

DeviceGraph upload_sample(simt::Device& dev) {
  graph::Coo coo;
  coo.num_vertices = 5;
  coo.edges = {{0, 1}, {0, 2}, {1, 2}, {2, 3}, {3, 4}, {2, 4}};
  // Id orientation: every cleaned edge is (min, max) already.
  const graph::Coo clean = graph::clean_edges(coo);
  const auto dag = graph::build_directed_csr(clean.num_vertices, clean.edges);
  return DeviceGraph::upload(dev, dag);
}

TEST(DeviceGraph, CopiesCsrFaithfully) {
  simt::Device dev;
  const DeviceGraph g = upload_sample(dev);
  EXPECT_EQ(g.num_vertices, 5u);
  EXPECT_EQ(g.num_edges, 6u);
  EXPECT_EQ(g.row_ptr.size(), 6u);
  EXPECT_EQ(g.col.size(), 6u);
  EXPECT_EQ(g.row_ptr.host_data()[0], 0u);
  EXPECT_EQ(g.row_ptr.host_data()[5], 6u);
}

TEST(DeviceGraph, EdgeListIsInCsrOrderWithUlessV) {
  simt::Device dev;
  const DeviceGraph g = upload_sample(dev);
  for (std::uint32_t e = 0; e < g.num_edges; ++e) {
    EXPECT_LT(g.edge_u.host_data()[e], g.edge_v.host_data()[e]) << "edge " << e;
    if (e > 0) {
      EXPECT_LE(g.edge_u.host_data()[e - 1], g.edge_u.host_data()[e]);
    }
  }
}

TEST(DeviceGraph, EdgeListMatchesAdjacency) {
  simt::Device dev;
  const DeviceGraph g = upload_sample(dev);
  for (std::uint32_t e = 0; e < g.num_edges; ++e) {
    const std::uint32_t u = g.edge_u.host_data()[e];
    const std::uint32_t v = g.edge_v.host_data()[e];
    const std::uint32_t lo = g.row_ptr.host_data()[u];
    const std::uint32_t hi = g.row_ptr.host_data()[u + 1];
    bool found = false;
    for (std::uint32_t i = lo; i < hi; ++i) found |= g.col.host_data()[i] == v;
    EXPECT_TRUE(found) << "edge " << e;
  }
}

TEST(DeviceGraph, TracksMaxOutDegree) {
  simt::Device dev;
  const DeviceGraph g = upload_sample(dev);
  EXPECT_EQ(g.max_out_degree, 2u);  // vertices 0 and 2 have out-degree 2
}

TEST(DeviceGraph, EmptyGraphUploads) {
  simt::Device dev;
  const DeviceGraph g = DeviceGraph::upload(dev, graph::Csr{});
  EXPECT_EQ(g.num_vertices, 0u);
  EXPECT_EQ(g.num_edges, 0u);
  EXPECT_EQ(g.max_out_degree, 0u);
}

}  // namespace
}  // namespace tcgpu::tc
