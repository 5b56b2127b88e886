// The compressed-image execution path: CMerge/CStage running against a
// DeviceGraph::upload_compressed vertex-iterator image (no col/edge arrays
// resident) must count exactly, match their self-staging raw-image runs,
// and the image itself must undercut the raw upload's bytes on real DAGs.
#include <gtest/gtest.h>

#include "gen/er.hpp"
#include "gen/rmat.hpp"
#include "graph/cpu_reference.hpp"
#include "graph/prepare.hpp"
#include "tc/cmerge.hpp"
#include "tc/cstage.hpp"
#include "tc/device_graph.hpp"

namespace tcgpu::tc {
namespace {

graph::Csr sample_dag(std::uint64_t seed, std::uint64_t edges = 4'000) {
  gen::RmatParams p;
  p.scale = 10;
  p.edges = edges;
  graph::Coo raw = gen::generate_rmat(p, seed);
  return graph::prepare_dag(std::move(raw)).dag;
}

TEST(CompressedImage, CMergeCountsExactlyOnCompressedUpload) {
  const graph::Csr dag = sample_dag(5);
  const std::uint64_t want = graph::count_triangles_forward(dag);

  simt::Device dev;
  const DeviceGraph g =
      DeviceGraph::upload_compressed(dev, graph::CompressedCsr::compress(dag));
  ASSERT_TRUE(g.has_compressed);
  const auto res = CMergeCounter().count(dev, simt::GpuSpec::v100(), g);
  EXPECT_EQ(res.triangles, want);
}

TEST(CompressedImage, CStageCountsExactlyOnCompressedUpload) {
  const graph::Csr dag = sample_dag(6);
  const std::uint64_t want = graph::count_triangles_forward(dag);

  simt::Device dev;
  const DeviceGraph g =
      DeviceGraph::upload_compressed(dev, graph::CompressedCsr::compress(dag));
  ASSERT_TRUE(g.has_compressed);
  const auto res = CStageCounter().count(dev, simt::GpuSpec::v100(), g);
  EXPECT_EQ(res.triangles, want);
}

TEST(CompressedImage, MatchesTheSelfStagedRawImageCount) {
  const graph::Csr dag = sample_dag(7);

  simt::Device raw_dev;
  const DeviceGraph raw = DeviceGraph::upload(raw_dev, dag);
  ASSERT_FALSE(raw.has_compressed);

  simt::Device cmp_dev;
  const DeviceGraph cmp = DeviceGraph::upload_compressed(
      cmp_dev, graph::CompressedCsr::compress(dag));

  const auto spec = simt::GpuSpec::v100();
  EXPECT_EQ(CMergeCounter().count(raw_dev, spec, raw).triangles,
            CMergeCounter().count(cmp_dev, spec, cmp).triangles);
  EXPECT_EQ(CStageCounter().count(raw_dev, spec, raw).triangles,
            CStageCounter().count(cmp_dev, spec, cmp).triangles);
}

TEST(CompressedImage, UploadIsSmallerThanRawForRealDags) {
  const graph::Csr dag = sample_dag(8, 20'000);

  simt::Device raw_dev;
  const DeviceGraph raw = DeviceGraph::upload(raw_dev, dag);
  simt::Device cmp_dev;
  const DeviceGraph cmp = DeviceGraph::upload_compressed(
      cmp_dev, graph::CompressedCsr::compress(dag));

  EXPECT_GT(cmp.compressed_bytes, 0u);
  EXPECT_LT(cmp_dev.bytes_allocated(), raw_dev.bytes_allocated());
  EXPECT_EQ(cmp.num_vertices, raw.num_vertices);
  EXPECT_EQ(cmp.num_edges, raw.num_edges);
  EXPECT_EQ(cmp.max_out_degree, raw.max_out_degree);
}

TEST(CompressedImage, HandlesEmptyAndEdgelessGraphs) {
  const graph::Csr empty;
  simt::Device dev;
  const DeviceGraph g =
      DeviceGraph::upload_compressed(dev, graph::CompressedCsr::compress(empty));
  const auto spec = simt::GpuSpec::v100();
  EXPECT_EQ(CMergeCounter().count(dev, spec, g).triangles, 0u);
  EXPECT_EQ(CStageCounter().count(dev, spec, g).triangles, 0u);
}

}  // namespace
}  // namespace tcgpu::tc
