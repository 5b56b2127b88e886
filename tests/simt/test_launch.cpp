// Launcher semantics: item coverage, phases-as-barriers, group scopes,
// per-item state, atomics, and fault handling.
#include <gtest/gtest.h>

#include <limits>
#include <numeric>

#include "simt/launch.hpp"

namespace tcgpu::simt {
namespace {

GpuSpec test_spec() {
  GpuSpec s = GpuSpec::v100();
  s.launch_overhead_us = 0.0;
  return s;
}

TEST(Launch, EveryItemVisitedExactlyOnceThreadScope) {
  Device dev;
  const std::uint64_t n = 10'000;
  auto visits = dev.alloc<std::uint32_t>(n);
  launch_threads(test_spec(), 7, 96, n, [&](ThreadCtx& ctx, std::uint64_t i) {
    ctx.atomic_add(visits, i, 1u);
  });
  for (auto v : visits.host_span()) EXPECT_EQ(v, 1u);
}

TEST(Launch, EveryItemVisitedOncePerLaneWarpScope) {
  Device dev;
  const std::uint64_t n = 300;
  auto visits = dev.alloc<std::uint32_t>(n);
  LaunchConfig cfg{3, 64, 32};
  launch_items<NoState>(test_spec(), cfg, n,
                        [&](ThreadCtx& ctx, NoState&, std::uint64_t i) {
                          ctx.atomic_add(visits, i, 1u);
                        });
  for (auto v : visits.host_span()) EXPECT_EQ(v, 32u);
}

TEST(Launch, EveryItemVisitedOncePerThreadBlockScope) {
  Device dev;
  const std::uint64_t n = 17;
  auto visits = dev.alloc<std::uint32_t>(n);
  LaunchConfig cfg{4, 128, 128};
  launch_items<NoState>(test_spec(), cfg, n,
                        [&](ThreadCtx& ctx, NoState&, std::uint64_t i) {
                          ctx.atomic_add(visits, i, 1u);
                        });
  for (auto v : visits.host_span()) EXPECT_EQ(v, 128u);
}

TEST(Launch, SubWarpGroupsShareAWarpAcrossItems) {
  Device dev;
  const std::uint64_t n = 64;
  auto owner = dev.alloc<std::uint32_t>(n);
  LaunchConfig cfg{1, 32, 8};  // 4 groups per warp
  launch_items<NoState>(test_spec(), cfg, n,
                        [&](ThreadCtx& ctx, NoState&, std::uint64_t i) {
                          if (ctx.group_lane() == 0) {
                            ctx.store(owner, i, ctx.thread_in_block() / 8);
                          }
                        });
  // 4 groups stride over 64 items: item i handled by group i % 4.
  for (std::uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(owner.host_span()[i], i % 4) << "item " << i;
  }
}

TEST(Launch, PhasesActAsBlockBarrier) {
  Device dev;
  const std::uint64_t items = 5;
  auto ok = dev.alloc<std::uint32_t>(items);
  LaunchConfig cfg{2, 64, 64};
  struct State {};
  // Phase 1: thread t writes t into shared[t]. Phase 2: thread t checks the
  // value written by a *different* thread — only correct if all of phase 1
  // completed first.
  launch_items<State>(
      test_spec(), cfg, items,
      [&](ThreadCtx& ctx, State&, std::uint64_t item) {
        auto arr = ctx.shared_array_tagged<std::uint32_t>(0, 64);
        ctx.shared_store(arr, ctx.thread_in_block(),
                         ctx.thread_in_block() + static_cast<std::uint32_t>(item));
      },
      [&](ThreadCtx& ctx, State&, std::uint64_t item) {
        auto arr = ctx.shared_array_tagged<std::uint32_t>(0, 64);
        const std::uint32_t peer = 63 - ctx.thread_in_block();
        const std::uint32_t got = ctx.shared_load(arr, peer);
        if (ctx.thread_in_block() == 0 &&
            got == peer + static_cast<std::uint32_t>(item)) {
          ctx.atomic_add(ok, item, 1u);
        }
      });
  for (std::uint64_t i = 0; i < items; ++i) {
    EXPECT_EQ(ok.host_span()[i], 1u) << "item " << i;
  }
}

TEST(Launch, StateIsValueInitializedPerItem) {
  Device dev;
  auto bad = dev.alloc<std::uint32_t>(1);
  struct State {
    std::uint32_t touched = 0;
  };
  LaunchConfig cfg{1, 32, 32};
  launch_items<State>(
      test_spec(), cfg, 10,
      [&](ThreadCtx& ctx, State& st, std::uint64_t) {
        if (st.touched != 0) ctx.atomic_add(bad, 0, 1u);
        st.touched = 1;
      },
      [&](ThreadCtx& ctx, State& st, std::uint64_t) {
        // ...but persists across phases of the same item.
        if (st.touched != 1) ctx.atomic_add(bad, 0, 1u);
      });
  EXPECT_EQ(bad.host_span()[0], 0u);
}

TEST(Launch, AtomicAddReturnsPriorValue) {
  Device dev;
  auto counter = dev.alloc<std::uint32_t>(1);
  auto seen = dev.alloc<std::uint32_t>(64);
  launch_threads(test_spec(), 1, 64, 64, [&](ThreadCtx& ctx, std::uint64_t i) {
    const std::uint32_t prior = ctx.atomic_add(counter, 0, 1u);
    ctx.store(seen, i, prior);
  });
  // All prior values distinct and in [0, 64).
  std::vector<std::uint32_t> priors(seen.host_span().begin(), seen.host_span().end());
  std::sort(priors.begin(), priors.end());
  for (std::uint32_t i = 0; i < 64; ++i) EXPECT_EQ(priors[i], i);
}

TEST(Launch, AtomicOrSetsBits) {
  Device dev;
  auto word = dev.alloc<std::uint32_t>(1);
  launch_threads(test_spec(), 1, 32, 32, [&](ThreadCtx& ctx, std::uint64_t i) {
    ctx.atomic_or(word, 0, 1u << i);
  });
  EXPECT_EQ(word.host_span()[0], 0xFFFFFFFFu);
}

TEST(Launch, AtomicCasReturnsOldValue) {
  Device dev;
  auto cell = dev.alloc<std::uint32_t>(1);
  cell.host_span()[0] = 5;
  auto out = dev.alloc<std::uint32_t>(2);
  launch_threads(test_spec(), 1, 32, 1, [&](ThreadCtx& ctx, std::uint64_t) {
    ctx.store(out, 0, ctx.atomic_cas(cell, 0, 5u, 9u));  // succeeds, old 5
    ctx.store(out, 1, ctx.atomic_cas(cell, 0, 5u, 7u));  // fails, old 9
  });
  EXPECT_EQ(out.host_span()[0], 5u);
  EXPECT_EQ(out.host_span()[1], 9u);
  EXPECT_EQ(cell.host_span()[0], 9u);
}

TEST(Launch, OutOfBoundsLoadFaults) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(4);
  EXPECT_THROW(launch_threads(test_spec(), 1, 32, 1,
                              [&](ThreadCtx& ctx, std::uint64_t) {
                                (void)ctx.load(buf, 4);
                              }),
               std::runtime_error);
}

TEST(Launch, SharedOverCapacityFaults) {
  GpuSpec spec = test_spec();
  spec.shared_mem_per_block = 64;
  LaunchConfig cfg{1, 32, 32};
  EXPECT_THROW(
      launch_items<NoState>(spec, cfg, 1,
                            [&](ThreadCtx& ctx, NoState&, std::uint64_t) {
                              (void)ctx.shared_array_tagged<std::uint32_t>(0, 1000);
                            }),
      std::runtime_error);
}

TEST(Launch, BadConfigsRejected) {
  auto noop = [](ThreadCtx&, NoState&, std::uint64_t) {};
  EXPECT_THROW(launch_items<NoState>(test_spec(), LaunchConfig{0, 32, 1}, 1, noop),
               std::invalid_argument);
  EXPECT_THROW(launch_items<NoState>(test_spec(), LaunchConfig{1, 33, 1}, 1, noop),
               std::invalid_argument);
  EXPECT_THROW(launch_items<NoState>(test_spec(), LaunchConfig{1, 64, 3}, 1, noop),
               std::invalid_argument);
  EXPECT_THROW(launch_items<NoState>(test_spec(), LaunchConfig{1, 2048, 2048}, 1, noop),
               std::invalid_argument);

  // GpuSpec values the aggregator would index or divide out of bounds with.
  auto rejects = [&](auto mutate) {
    GpuSpec spec = test_spec();
    mutate(spec);
    EXPECT_THROW(launch_items<NoState>(spec, LaunchConfig{1, 64, 1}, 1, noop),
                 std::invalid_argument);
  };
  rejects([](GpuSpec& s) { s.warp_size = 16; });
  rejects([](GpuSpec& s) { s.warp_size = 64; });
  rejects([](GpuSpec& s) { s.shared_banks = 0; });
  rejects([](GpuSpec& s) { s.shared_banks = 65; });
  rejects([](GpuSpec& s) { s.sector_bytes = 0; });
  // GpuSpec values the time model cannot price: finalize would divide by
  // zero SMs (SIGFPE) or return an infinite or NaN time_ms.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  rejects([](GpuSpec& s) { s.sm_count = 0; });
  for (const double bad : {0.0, -1.38, kInf, -kInf, kNaN}) {
    rejects([bad](GpuSpec& s) { s.clock_ghz = bad; });
    rejects([bad](GpuSpec& s) { s.mem_bandwidth_gbps = bad; });
  }

  GpuSpec edge = test_spec();
  edge.shared_banks = 64;  // the largest bank count the model tallies
  EXPECT_NO_THROW(launch_items<NoState>(edge, LaunchConfig{1, 64, 1}, 1, noop));
}

TEST(Launch, ZeroItemsIsANoOp) {
  auto stats = launch_threads(test_spec(), 4, 64, 0,
                              [&](ThreadCtx&, std::uint64_t) { FAIL(); });
  EXPECT_EQ(stats.metrics.global_load_requests, 0u);
  EXPECT_DOUBLE_EQ(stats.time_ms, 0.0);
}

TEST(Launch, MetricsAreDeterministicAcrossRuns) {
  Device dev;
  auto buf = dev.alloc<std::uint32_t>(4096);
  auto run = [&] {
    return launch_threads(test_spec(), 16, 128, 4096,
                          [&](ThreadCtx& ctx, std::uint64_t i) {
                            (void)ctx.load(buf, (i * 37) % 4096);
                          });
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.metrics.global_load_transactions, b.metrics.global_load_transactions);
  EXPECT_EQ(a.metrics.warp_steps, b.metrics.warp_steps);
  EXPECT_DOUBLE_EQ(a.time_ms, b.time_ms);
}

}  // namespace
}  // namespace tcgpu::simt
