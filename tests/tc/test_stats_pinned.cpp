// Bit-identical KernelStats regression gate: one kernel per intersection
// family, then the other five paper kernels, then the four registered
// extensions, pinned against checked-in counter seeds on a fixed R-MAT graph.
//
// The tc/intersect/ library's porting contract is that composing a kernel
// from the shared policies leaves its per-lane event sequence — and
// therefore every simulated counter — exactly as the pre-library kernel
// produced it. These seeds were captured from that baseline; any drift in a
// policy's load/store/atomic placement shows up here as an off-by-N, not as
// a vague perf delta. The same holds for the simulator: a change to how the
// warp aggregator groups lane events moves these counters too. time_ms is
// intentionally not pinned (it follows from the counters via the time model,
// which may be retuned independently).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "framework/registry.hpp"
#include "framework/runner.hpp"
#include "gen/rmat.hpp"

namespace tcgpu::tc {
namespace {

struct PinnedMetrics {
  const char* algorithm;
  const char* launch;
  std::uint64_t gld_req, gld_tx, gst_req, gst_tx, gatom_req, gatom_tx, dram;
  std::uint64_t sld_req, sst_req, satom_req, conflict;
  std::uint64_t warp_steps, lane_steps, warps;
};

// Captured on rmat(scale=11, edges=15000, seed=77), GpuSpec::v100(),
// default kernel configs, one fresh Device per kernel (DRAM sector counts
// depend on cache state, so each kernel is pinned cold); the graph counts
// 80612 triangles.
constexpr PinnedMetrics kPerFamily[] = {
    {"Polak", "polak_merge",  // Merge family
     35255, 321769, 0, 0, 461, 461, 30827, 0, 0, 0, 0, 35716, 645209, 640},
    {"GroupTC", "grouptc_chunk",  // Bin-Search family
     45375, 225870, 0, 0, 464, 464, 31283, 125319, 6608, 0, 2788, 177766,
     5579159, 640},
    {"TRUST", "trust_warp",  // Hash family
     63322, 108886, 1, 1, 1168, 1168, 36450, 19911, 4020, 1371, 8051, 100997,
     2861400, 1328},
    {"Bisson", "bisson_warp",  // BitMap family
     116786, 395043, 1648, 2925, 2816, 4093, 34010, 0, 0, 0, 0, 121250,
     1024482, 640},
};

// The other five paper kernels, same setup. Fox is pinned on all four of its
// degree-bin launches.
constexpr PinnedMetrics kOtherPaperKernels[] = {
    {"Green", "green_merge_path",  // Merge family
     189853, 343888, 0, 0, 12629, 12629, 65385, 0, 0, 0, 0, 202482, 4670704,
     15008},
    {"TriCore", "tricore_binsearch",  // Bin-Search family
     158277, 243839, 0, 0, 12629, 12629, 72009, 23494, 4438, 0, 0, 198838,
     4345999, 15000},
    {"Fox", "fox_bin0",  // Bin-Search family
     93, 1332, 0, 0, 5, 5, 770, 0, 0, 0, 0, 98, 2692, 640},
    {"Fox", "fox_bin1", 2182, 15624, 0, 0, 113, 113, 5574, 0, 0, 0, 0, 2295,
     52642, 640},
    {"Fox", "fox_bin2", 16881, 83094, 0, 0, 689, 689, 17412, 0, 0, 0, 0, 17570,
     413937, 696},
    {"Fox", "fox_bin3", 47354, 188466, 0, 0, 1666, 1666, 34169, 0, 0, 0, 0,
     49020, 1251015, 1672},
    {"Hu", "hu_fine_grained",  // Bin-Search family
     423109, 469302, 0, 0, 5897, 5897, 64172, 41941, 1648, 0, 204, 536715,
     16752578, 12832},
    {"H-INDEX", "hindex_warp",  // Hash family
     213294, 282188, 19, 19, 12629, 12629, 74322, 42438, 44642, 14661, 10321,
     360962, 8464911, 15000},
};

// The four registered kernels beyond the paper's nine (GroupTC-H, BSR,
// CMerge, CStage), same graph and cold-device setup. Each runs one launch.
constexpr PinnedMetrics kExtensionKernels[] = {
    {"GroupTC-H", "grouptc_hash_chunk",  // GroupTC chunks, hash probes
     25016, 119318, 0, 0, 464, 464, 31271, 168293, 35656, 461, 217701, 245774,
     6818936, 640},
    {"BSR", "bsr_warp",  // BitMap family, blocked sparse rows
     40232, 147252, 0, 0, 1168, 1168, 25003, 0, 0, 0, 0, 46406, 541322, 1608},
    {"CMerge", "cmerge_thread",  // Merge family, compressed rows
     9366, 150055, 0, 0, 43, 43, 3039, 0, 0, 0, 0, 33864, 750963, 640},
    {"CStage", "cstage_block",  // Merge family, shared-staged anchor row
     73482, 164769, 0, 0, 1199, 1199, 53500, 17244, 15000, 0, 0, 158006,
     2227064, 12832},
};

template <std::size_t N>
void expect_pinned(const PinnedMetrics (&pins)[N]) {
  gen::RmatParams p;
  p.scale = 11;
  p.edges = 15'000;
  const auto pg = framework::prepare_graph("rmat_pin", gen::generate_rmat(p, 77));
  const simt::GpuSpec spec = simt::GpuSpec::v100();

  for (const auto& pin : pins) {
    simt::Device dev;  // fresh device: every kernel is pinned on a cold cache
    const DeviceGraph g = DeviceGraph::upload(dev, pg.dag);
    const auto algo = framework::make_algorithm(pin.algorithm);
    const AlgoResult r = algo->count(dev, spec, g);
    EXPECT_EQ(r.triangles, 80'612u) << pin.algorithm;

    const simt::KernelMetrics* m = nullptr;
    for (const auto& [name, stats] : r.launches) {
      if (name == pin.launch) m = &stats.metrics;
    }
    ASSERT_NE(m, nullptr) << pin.algorithm << " lost launch " << pin.launch;

    EXPECT_EQ(m->global_load_requests, pin.gld_req) << pin.launch;
    EXPECT_EQ(m->global_load_transactions, pin.gld_tx) << pin.launch;
    EXPECT_EQ(m->global_store_requests, pin.gst_req) << pin.launch;
    EXPECT_EQ(m->global_store_transactions, pin.gst_tx) << pin.launch;
    EXPECT_EQ(m->global_atomic_requests, pin.gatom_req) << pin.launch;
    EXPECT_EQ(m->global_atomic_transactions, pin.gatom_tx) << pin.launch;
    EXPECT_EQ(m->global_dram_transactions, pin.dram) << pin.launch;
    EXPECT_EQ(m->shared_load_requests, pin.sld_req) << pin.launch;
    EXPECT_EQ(m->shared_store_requests, pin.sst_req) << pin.launch;
    EXPECT_EQ(m->shared_atomic_requests, pin.satom_req) << pin.launch;
    EXPECT_EQ(m->shared_conflict_cycles, pin.conflict) << pin.launch;
    EXPECT_EQ(m->warp_steps, pin.warp_steps) << pin.launch;
    EXPECT_EQ(m->active_lane_steps, pin.lane_steps) << pin.launch;
    EXPECT_EQ(m->warps_launched, pin.warps) << pin.launch;
  }
}

TEST(StatsPinned, OneKernelPerFamilyBitIdentical) { expect_pinned(kPerFamily); }

TEST(StatsPinned, OtherPaperKernelsBitIdentical) { expect_pinned(kOtherPaperKernels); }

TEST(StatsPinned, ExtensionKernelsBitIdentical) { expect_pinned(kExtensionKernels); }

}  // namespace
}  // namespace tcgpu::tc
