// tc/intersect/ policy tests: every intersection policy against
// std::set_intersection on adversarial list shapes, plus the metering
// contract — each policy's TCGPU_SITE()s are its own, so the KernelStats a
// policy produces are deterministic and distinguish it from its siblings.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "simt/launch.hpp"
#include "tc/intersect/binsearch.hpp"
#include "tc/intersect/bitmap.hpp"
#include "tc/intersect/hash.hpp"
#include "tc/intersect/merge.hpp"

namespace tcgpu::tc::intersect {
namespace {

simt::GpuSpec test_spec() {
  simt::GpuSpec s = simt::GpuSpec::v100();
  s.launch_overhead_us = 0.0;
  return s;
}

/// Sorted duplicate-free operand pairs covering the shapes that break
/// cursor/boundary logic: emptiness, disjointness, identity, heavy length
/// skew, matches pinned to both ends, and dense same-word runs (BSR).
struct Shape {
  const char* name;
  std::vector<std::uint32_t> a, b;
};

std::vector<Shape> shapes() {
  std::vector<std::uint32_t> ramp, odds, sparse_hits;
  for (std::uint32_t i = 0; i < 400; ++i) ramp.push_back(3 * i + 1);
  for (std::uint32_t i = 0; i < 64; ++i) odds.push_back(2 * i + 1);
  for (std::uint32_t i = 0; i < 5; ++i) sparse_hits.push_back(3 * (80 * i) + 1);
  return {
      {"both_empty", {}, {}},
      {"a_empty", {}, {5, 9, 12}},
      {"b_empty", {4, 7}, {}},
      {"disjoint_interleaved", {0, 2, 4, 6, 8}, {1, 3, 5, 7, 9}},
      {"identical", odds, odds},
      {"singleton_hit", {33}, odds},
      {"singleton_miss", {34}, odds},
      {"first_and_last_only", {1, 500, 1000}, {1, 600, 700, 1000}},
      {"skewed_lengths", sparse_hits, ramp},
      {"dense_same_word", {64, 65, 66, 67, 68, 95}, {64, 66, 68, 70, 95}},
      {"b_exhausts_first", {10, 20, 30, 40, 50}, {5, 15, 25}},
  };
}

std::uint64_t ref_count(const Shape& s) {
  std::vector<std::uint32_t> out;
  std::set_intersection(s.a.begin(), s.a.end(), s.b.begin(), s.b.end(),
                        std::back_inserter(out));
  return out.size();
}

struct RunResult {
  std::uint64_t count = 0;
  simt::KernelStats stats;
};

/// Uploads the operands and runs `body(ctx, a, b)` on a single thread.
template <class Body>
RunResult run_single(const Shape& s, Body&& body) {
  simt::Device dev;
  auto da = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.a.size()));
  auto db = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.b.size()));
  std::copy(s.a.begin(), s.a.end(), da.host_data());
  std::copy(s.b.begin(), s.b.end(), db.host_data());
  auto out = dev.alloc<std::uint64_t>(1);

  RunResult r;
  r.stats = simt::launch_threads(
      test_spec(), 1, 32, 1, [&](simt::ThreadCtx& ctx, std::uint64_t) {
        const ListRef a{&da, 0, static_cast<std::uint32_t>(s.a.size())};
        const ListRef b{&db, 0, static_cast<std::uint32_t>(s.b.size())};
        ctx.atomic_add(out, 0, body(ctx, a, b), TCGPU_SITE());
      });
  r.count = out.host_span()[0];
  return r;
}

template <class Policy>
RunResult run_policy(const Shape& s) {
  return run_single(s, [](simt::ThreadCtx& ctx, ListRef a, ListRef b) {
    return Policy::count(ctx, a, b);
  });
}

TEST(IntersectMerge, SequentialMatchesStdSetIntersection) {
  for (const auto& s : shapes()) {
    EXPECT_EQ(run_policy<MergeSequential>(s).count, ref_count(s)) << s.name;
  }
}

TEST(IntersectMerge, RegisterCachedMatchesStdSetIntersection) {
  for (const auto& s : shapes()) {
    EXPECT_EQ(run_policy<MergeRegisterCached>(s).count, ref_count(s)) << s.name;
  }
}

TEST(IntersectMerge, ChunkedMatchesStdSetIntersection) {
  // MergeChunked's contract requires a non-empty chunk (the composing
  // kernels only form chunks from non-empty lists).
  for (const auto& s : shapes()) {
    if (s.a.empty()) continue;
    EXPECT_EQ(run_policy<MergeChunked>(s).count, ref_count(s)) << s.name;
  }
}

TEST(IntersectBinSearch, SweepMatchesStdSetIntersection) {
  for (const auto& s : shapes()) {
    EXPECT_EQ(run_policy<BinSearchSweep>(s).count, ref_count(s)) << s.name;
  }
}

TEST(IntersectBinSearch, HeapSearchMatchesStdSetIntersection) {
  // Heap-ordered probes over B, exactly as TriCore walks its cached tree:
  // probe (k, mid) must see the same element at heap node k (via the host
  // heap_node_index layout) as at sorted index mid.
  for (const auto& s : shapes()) {
    if (s.b.empty()) {
      continue;  // heap layout undefined for an empty table
    }
    const std::uint32_t len = static_cast<std::uint32_t>(s.b.size());
    // The walk's 1-based heap id covers the complete tree over the search
    // range, which extends below the last full level — size for the whole
    // tree, not just len (heap_node_index clamps below-leaf nodes).
    std::uint32_t tree = 1;
    while (tree < len + 1) tree <<= 1;
    std::vector<std::uint32_t> heap(2 * tree - 1);
    for (std::uint32_t k = 1; k <= heap.size(); ++k) {
      heap[k - 1] = s.b[heap_node_index(k, len)];
    }
    simt::Device dev;
    auto da = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.a.size()));
    auto dheap = dev.alloc<std::uint32_t>(heap.size());
    std::copy(s.a.begin(), s.a.end(), da.host_data());
    std::copy(heap.begin(), heap.end(), dheap.host_data());
    auto out = dev.alloc<std::uint64_t>(1);

    simt::launch_threads(
        test_spec(), 1, 32, 1, [&](simt::ThreadCtx& ctx, std::uint64_t) {
          std::uint64_t local = 0;
          for (std::uint32_t i = 0; i < s.a.size(); ++i) {
            const std::uint32_t key = ctx.load(da, i, TCGPU_SITE());
            const bool hit = heap_search_probe(
                len, key, [&](std::uint64_t k, std::uint32_t) {
                  return ctx.load(dheap, static_cast<std::size_t>(k - 1),
                                  TCGPU_SITE());
                });
            if (hit) ++local;
          }
          ctx.atomic_add(out, 0, local, TCGPU_SITE());
        });
    EXPECT_EQ(out.host_span()[0], ref_count(s)) << s.name;
  }
}

TEST(IntersectBinSearch, HeapNodeIndexVisitsEveryProbePath) {
  // Host-side layout check: walking every key of a sorted table through a
  // plain binary search visits exactly the node heap_node_index names.
  const std::vector<std::uint32_t> table = {2, 3, 5, 8, 13, 21, 34, 55, 89};
  const std::uint32_t len = static_cast<std::uint32_t>(table.size());
  for (const std::uint32_t key : table) {
    std::uint32_t lo = 0, hi = len;
    std::uint64_t k = 1;
    bool found = false;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      ASSERT_EQ(heap_node_index(static_cast<std::uint32_t>(k), len), mid);
      if (table[mid] == key) {
        found = true;
        break;
      }
      if (table[mid] < key) {
        lo = mid + 1;
        k = 2 * k + 1;
      } else {
        hi = mid;
        k = 2 * k;
      }
    }
    EXPECT_TRUE(found) << key;
  }
}

TEST(IntersectBinSearch, MonotoneSearchCountsAndResumes) {
  for (const auto& s : shapes()) {
    const auto r = run_single(s, [&](simt::ThreadCtx& ctx, ListRef a, ListRef b) {
      // Ascending keys of A against B with GroupTC's resume-point reuse.
      std::uint64_t local = 0;
      std::uint32_t resume = b.lo;
      for (std::uint32_t i = a.lo; i < a.hi; ++i) {
        const std::uint32_t key = ctx.load(*a.buf, i, TCGPU_SITE());
        const auto hit = monotone_search(ctx, *b.buf, resume, b.hi, key);
        if (hit.found) ++local;
        resume = hit.resume;
      }
      return local;
    });
    EXPECT_EQ(r.count, ref_count(s)) << s.name;
  }
}

TEST(IntersectHash, BucketedHashMatchesStdSetIntersection) {
  // Small table (4 buckets x 2 slots) so the adversarial shapes exercise
  // both the shared slots and the global overflow spill path.
  constexpr std::uint32_t kBuckets = 4, kSlots = 2, kOvfCap = 512;
  for (const auto& s : shapes()) {
    simt::Device dev;
    auto da = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.a.size()));
    auto db = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.b.size()));
    std::copy(s.a.begin(), s.a.end(), da.host_data());
    std::copy(s.b.begin(), s.b.end(), db.host_data());
    auto overflow = dev.alloc<std::uint32_t>(kOvfCap);
    auto out = dev.alloc<std::uint64_t>(1);

    simt::launch_threads(
        test_spec(), 1, 32, 1, [&](simt::ThreadCtx& ctx, std::uint64_t) {
          BucketedHash h;
          h.len = ctx.shared_array_tagged<std::uint32_t>(0, kBuckets);
          h.table = ctx.shared_array_tagged<std::uint32_t>(1, kSlots * kBuckets);
          h.ovf = ctx.shared_array_tagged<std::uint32_t>(2, 1);
          h.overflow = &overflow;
          h.buckets = kBuckets;
          h.slots = kSlots;
          h.ovf_cap = kOvfCap;
          h.reset_slice(ctx, 0, 1);
          for (std::uint32_t i = 0; i < s.b.size(); ++i) {
            h.insert(ctx, ctx.load(db, i, TCGPU_SITE()));
          }
          std::uint64_t local = 0;
          for (std::uint32_t i = 0; i < s.a.size(); ++i) {
            if (h.contains(ctx, ctx.load(da, i, TCGPU_SITE()))) ++local;
          }
          ctx.atomic_add(out, 0, local, TCGPU_SITE());
        });
    EXPECT_EQ(out.host_span()[0], ref_count(s)) << s.name;
  }
}

TEST(IntersectHash, LinearProbeMatchesStdSetIntersection) {
  for (const auto& s : shapes()) {
    const std::uint32_t cap =
        pow2_at_least(2 * static_cast<std::uint32_t>(s.b.size()) + 2);
    simt::Device dev;
    auto da = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.a.size()));
    auto db = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.b.size()));
    std::copy(s.a.begin(), s.a.end(), da.host_data());
    std::copy(s.b.begin(), s.b.end(), db.host_data());
    auto out = dev.alloc<std::uint64_t>(1);

    simt::launch_threads(
        test_spec(), 1, 32, 1, [&](simt::ThreadCtx& ctx, std::uint64_t) {
          auto pool = ctx.shared_array_tagged<std::uint32_t>(0, cap);
          linear_probe_clear(ctx, pool, 0, cap);
          for (std::uint32_t i = 0; i < s.b.size(); ++i) {
            linear_probe_insert(ctx, pool, 0, cap, ctx.load(db, i, TCGPU_SITE()));
          }
          std::uint64_t local = 0;
          for (std::uint32_t i = 0; i < s.a.size(); ++i) {
            const std::uint32_t key = ctx.load(da, i, TCGPU_SITE());
            if (linear_probe_contains(ctx, pool, 0, cap, key)) ++local;
          }
          ctx.atomic_add(out, 0, local, TCGPU_SITE());
        });
    EXPECT_EQ(out.host_span()[0], ref_count(s)) << s.name;
  }
}

TEST(IntersectBitmap, VertexBitmapMatchesInBothResidences) {
  // Build the bitmap from B, probe with A — in shared memory and again in
  // the global-scratch spill residence; both must agree with the reference.
  for (const bool in_shared : {true, false}) {
    for (const auto& s : shapes()) {
      const std::uint32_t maxv =
          1 + std::max(s.a.empty() ? 0u : s.a.back(),
                       s.b.empty() ? 0u : s.b.back());
      const std::uint32_t words = bit_word(maxv) + 1;
      simt::Device dev;
      auto da = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.a.size()));
      auto db = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, s.b.size()));
      std::copy(s.a.begin(), s.a.end(), da.host_data());
      std::copy(s.b.begin(), s.b.end(), db.host_data());
      auto scratch = dev.alloc<std::uint32_t>(words);
      auto out = dev.alloc<std::uint64_t>(1);

      simt::launch_threads(
          test_spec(), 1, 32, 1, [&](simt::ThreadCtx& ctx, std::uint64_t) {
            VertexBitmap bm;
            bm.in_shared = in_shared;
            if (in_shared) {
              bm.sm = ctx.shared_array_tagged<std::uint32_t>(0, words);
            }
            bm.gm = &scratch;
            bm.base = 0;
            for (std::uint32_t i = 0; i < s.b.size(); ++i) {
              bm.set(ctx, ctx.load(db, i, TCGPU_SITE()));
            }
            std::uint64_t local = 0;
            for (std::uint32_t i = 0; i < s.a.size(); ++i) {
              if (bm.test(ctx, ctx.load(da, i, TCGPU_SITE()))) ++local;
            }
            for (std::uint32_t i = 0; i < s.b.size(); ++i) {
              bm.clear(ctx, ctx.load(db, i, TCGPU_SITE()));
            }
            ctx.atomic_add(out, 0, local, TCGPU_SITE());
          });
      EXPECT_EQ(out.host_span()[0], ref_count(s))
          << s.name << (in_shared ? " (shared)" : " (global)");
    }
  }
}

TEST(IntersectBitmap, BsrAndCountMatchesStdSetIntersection) {
  auto compress = [](const std::vector<std::uint32_t>& list,
                     std::vector<std::uint32_t>* base,
                     std::vector<std::uint32_t>* word) {
    for (const std::uint32_t v : list) {
      if (base->empty() || base->back() != bit_word(v)) {
        base->push_back(bit_word(v));
        word->push_back(0);
      }
      word->back() |= bit_mask(v);
    }
  };
  for (const auto& s : shapes()) {
    std::vector<std::uint32_t> ab, aw, bb, bw;
    compress(s.a, &ab, &aw);
    compress(s.b, &bb, &bw);
    simt::Device dev;
    auto d_ab = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, ab.size()));
    auto d_aw = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, aw.size()));
    auto d_bb = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, bb.size()));
    auto d_bw = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, bw.size()));
    std::copy(ab.begin(), ab.end(), d_ab.host_data());
    std::copy(aw.begin(), aw.end(), d_aw.host_data());
    std::copy(bb.begin(), bb.end(), d_bb.host_data());
    std::copy(bw.begin(), bw.end(), d_bw.host_data());
    auto out = dev.alloc<std::uint64_t>(1);

    simt::launch_threads(
        test_spec(), 1, 32, 1, [&](simt::ThreadCtx& ctx, std::uint64_t) {
          const BsrRef ra{&d_ab, &d_aw, 0, static_cast<std::uint32_t>(ab.size())};
          const BsrRef rb{&d_bb, &d_bw, 0, static_cast<std::uint32_t>(bb.size())};
          ctx.atomic_add(out, 0, bsr_and_count(ctx, ra, rb), TCGPU_SITE());
        });
    EXPECT_EQ(out.host_span()[0], ref_count(s)) << s.name;
  }
}

TEST(IntersectMetering, PolicyLoadCountsAreTheirOwn) {
  // The metering contract behind the library's bit-identity guarantee: each
  // policy issues loads from its own TCGPU_SITE()s, so two policies with
  // different event shapes are distinguishable in KernelStats even on the
  // same operands. On a=[1,3,5] x b=[2,3,4]: the sequential merge reloads
  // both cursors each of its 4 iterations (8 loads), while the
  // register-cached merge reloads only what advanced (6 loads).
  const Shape s{"pinned", {1, 3, 5}, {2, 3, 4}};
  const auto seq = run_policy<MergeSequential>(s);
  const auto reg = run_policy<MergeRegisterCached>(s);
  EXPECT_EQ(seq.count, 1u);
  EXPECT_EQ(reg.count, 1u);
  EXPECT_EQ(seq.stats.metrics.global_load_requests, 8u);
  EXPECT_EQ(reg.stats.metrics.global_load_requests, 6u);
}

TEST(IntersectMetering, PolicyStatsAreDeterministic) {
  const Shape s{"det", {1, 4, 9, 16, 25, 36}, {2, 4, 8, 16, 32}};
  const auto a1 = run_policy<MergeSequential>(s);
  const auto a2 = run_policy<MergeSequential>(s);
  EXPECT_EQ(a1.stats, a2.stats);
  const auto b1 = run_policy<BinSearchSweep>(s);
  const auto b2 = run_policy<BinSearchSweep>(s);
  EXPECT_EQ(b1.stats, b2.stats);
}

TEST(MergeCollect, MatchesSetIntersectionOnEveryShape) {
  // merge_collect_probed is the stream delta kernel's workhorse: besides
  // counting, it must surface every common value (and its positions in both
  // operands) exactly once, in ascending order.
  for (const auto& s : shapes()) {
    std::vector<std::uint32_t> expected;
    std::set_intersection(s.a.begin(), s.a.end(), s.b.begin(), s.b.end(),
                          std::back_inserter(expected));
    std::vector<std::uint32_t> values;
    const auto count = merge_collect_probed(
        static_cast<std::uint32_t>(s.a.size()),
        static_cast<std::uint32_t>(s.b.size()),
        [&](std::uint32_t i) { return s.a[i]; },
        [&](std::uint32_t j) { return s.b[j]; },
        [&](std::uint32_t value, std::uint32_t i, std::uint32_t j) {
          EXPECT_EQ(s.a[i], value) << s.name;
          EXPECT_EQ(s.b[j], value) << s.name;
          values.push_back(value);
        });
    EXPECT_EQ(count, expected.size()) << s.name;
    EXPECT_EQ(values, expected) << s.name;
  }
}

}  // namespace
}  // namespace tcgpu::tc::intersect
