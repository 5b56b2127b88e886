// Merge-family intersection policies (Table I "Merge").
//
// Three ported shapes — each transplanted verbatim from the kernel that
// introduced it, so its per-lane event sequence (and therefore KernelStats)
// is bit-identical to the pre-library code:
//
//   MergeSequential     — both cursors reloaded every iteration (Bisson's
//                         low-degree thread path; the stream layer's
//                         wedge-delta kernel counts each job with it).
//   MergeRegisterCached — only the advanced cursor is reloaded (Polak; the
//                         whole algorithm's advantage is few loads).
//   MergeChunked        — one lane merges its equal chunk of A against the
//                         window of B located by a metered lower_bound
//                         (Green's merge-path partitioning, Figure 4).
#pragma once

#include <cstdint>

#include "simt/launch.hpp"
#include "tc/intersect/list_ref.hpp"

namespace tcgpu::tc::intersect {

/// Sequential two-pointer merge, both elements loaded per iteration.
/// Event shape: Bisson's thread path.
struct MergeSequential {
  static std::uint64_t count(simt::ThreadCtx& ctx, ListRef a, ListRef b) {
    std::uint64_t local = 0;
    std::uint32_t pa = a.lo, pb = b.lo;
    while (pa < a.hi && pb < b.hi) {
      const std::uint32_t x = ctx.load(*a.buf, pa, TCGPU_SITE());
      const std::uint32_t y = ctx.load(*b.buf, pb, TCGPU_SITE());
      if (x == y) {
        ++local;
        ++pa;
        ++pb;
      } else if (x < y) {
        ++pa;
      } else {
        ++pb;
      }
    }
    return local;
  }
};

/// Register-cached merge: reload only the advanced pointer, as the published
/// Polak kernel does — Polak's whole advantage is few loads.
struct MergeRegisterCached {
  static std::uint64_t count(simt::ThreadCtx& ctx, ListRef a, ListRef b) {
    std::uint64_t local = 0;
    std::uint32_t pu = a.lo, pv = b.lo;
    if (pu < a.hi && pv < b.hi) {
      std::uint32_t x = ctx.load(*a.buf, pu, TCGPU_SITE());
      std::uint32_t y = ctx.load(*b.buf, pv, TCGPU_SITE());
      while (true) {
        if (x == y) {
          ++local;
          if (++pu >= a.hi || ++pv >= b.hi) break;
          x = ctx.load(*a.buf, pu, TCGPU_SITE());
          y = ctx.load(*b.buf, pv, TCGPU_SITE());
        } else if (x < y) {
          if (++pu >= a.hi) break;
          x = ctx.load(*a.buf, pu, TCGPU_SITE());
        } else {
          if (++pv >= b.hi) break;
          y = ctx.load(*b.buf, pv, TCGPU_SITE());
        }
      }
    }
    return local;
  }
};

/// One lane's share of a team merge: `chunk` is the lane's slice of A; the
/// matching window of B is located by a metered binary search (lower_bound
/// on chunk's first element — the partitioning step of Green's Figure 4),
/// then merged with B reloaded every iteration and A reloaded on advance.
struct MergeChunked {
  static std::uint64_t count(simt::ThreadCtx& ctx, ListRef chunk, ListRef b) {
    const std::uint32_t first = ctx.load(*chunk.buf, chunk.lo, TCGPU_SITE());
    // lower_bound(B, first)
    std::uint32_t lo = b.lo, hi = b.hi;
    while (lo < hi) {
      const std::uint32_t mid = lo + (hi - lo) / 2;
      if (ctx.load(*b.buf, mid, TCGPU_SITE()) < first) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }

    std::uint64_t local = 0;
    std::uint32_t pa = chunk.lo, pb = lo;
    std::uint32_t a = first;
    while (pa < chunk.hi && pb < b.hi) {
      const std::uint32_t y = ctx.load(*b.buf, pb, TCGPU_SITE());
      if (a == y) {
        ++local;
        ++pa;
        ++pb;
        if (pa < chunk.hi) a = ctx.load(*chunk.buf, pa, TCGPU_SITE());
      } else if (a < y) {
        ++pa;
        if (pa < chunk.hi) a = ctx.load(*chunk.buf, pa, TCGPU_SITE());
      } else {
        ++pb;
      }
    }
    return local;
  }
};

}  // namespace tcgpu::tc::intersect
