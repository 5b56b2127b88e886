// Merge-family intersection policies (Table I "Merge").
//
// Three ported shapes — each transplanted verbatim from the kernel that
// introduced it, so its per-lane event sequence (and therefore KernelStats)
// is bit-identical to the pre-library code:
//
//   MergeSequential     — both cursors reloaded every iteration (Bisson's
//                         low-degree thread path).
//   MergeRegisterCached — only the advanced cursor is reloaded (Polak; the
//                         whole algorithm's advantage is few loads).
//   MergeChunked        — one lane merges its equal chunk of A against the
//                         window of B located by a metered lower_bound
//                         (Green's merge-path partitioning, Figure 4).
//
// Plus a probe-parameterized merge that reports every match (the stream
// layer's wedge-delta kernel): the probes carry the caller's TCGPU_SITE()s,
// so sites stay per-kernel.
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

/// Sequential merge over two index spaces with caller-supplied element
/// probes, reporting every match to `on_match(value, i, j)`. The stream
/// layer's wedge-delta kernel composes this — delta maintenance needs the
/// surviving common neighbors themselves, not just their number, to credit
/// per-edge support. Probes own the metered accesses, so sites stay
/// attributed to the composing kernel. Returns the match count.
template <class ProbeA, class ProbeB, class OnMatch>
std::uint64_t merge_collect_probed(std::uint32_t na, std::uint32_t nb,
                                   ProbeA&& probe_a, ProbeB&& probe_b,
                                   OnMatch&& on_match) {
  std::uint64_t local = 0;
  std::uint32_t i = 0, j = 0;
  while (i < na && j < nb) {
    const std::uint32_t x = probe_a(i);
    const std::uint32_t y = probe_b(j);
    if (x == y) {
      on_match(x, i, j);
      ++local;
      ++i;
      ++j;
    } else if (x < y) {
      ++i;
    } else {
      ++j;
    }
  }
  return local;
}

}  // namespace tcgpu::tc::intersect
