#include "tc/support.hpp"

#include <stdexcept>

#include "tc/intersect/binsearch.hpp"

namespace tcgpu::tc {

SupportResult count_edge_support(simt::Device& dev, const simt::GpuSpec& spec,
                                 const DeviceGraph& g,
                                 simt::DeviceBuffer<std::uint32_t>& support,
                                 std::uint32_t block) {
  if (support.size() < g.num_edges) {
    throw std::invalid_argument("count_edge_support: support buffer too small");
  }
  (void)dev;
  const std::uint32_t n = block;
  const std::uint64_t chunks = (static_cast<std::uint64_t>(g.num_edges) + n - 1) / n;

  simt::LaunchConfig cfg;
  cfg.block = n;
  cfg.group_size = n;
  cfg.grid = pick_grid(spec, chunks, n, n);

  auto table_lo_arr = [&](simt::ThreadCtx& ctx) {
    return ctx.shared_array_tagged<std::uint32_t>(0, n);
  };
  auto table_hi_arr = [&](simt::ThreadCtx& ctx) {
    return ctx.shared_array_tagged<std::uint32_t>(1, n);
  };
  auto key_lo_arr = [&](simt::ThreadCtx& ctx) {
    return ctx.shared_array_tagged<std::uint32_t>(2, n);
  };
  auto edge_id_arr = [&](simt::ThreadCtx& ctx) {
    return ctx.shared_array_tagged<std::uint32_t>(5, n);
  };
  auto prefix_a = [&](simt::ThreadCtx& ctx) {
    return ctx.shared_array_tagged<std::uint32_t>(3, n);
  };
  auto prefix_b = [&](simt::ThreadCtx& ctx) {
    return ctx.shared_array_tagged<std::uint32_t>(4, n);
  };

  // Same chunked structure as GroupTC, but without the table flip: the
  // search table must stay N+(u)'s suffix so that a hit position is the
  // (u,w) edge id, the key position is the (v,w) edge id, and the chunk
  // edge itself is (u,v) — all three edges of the triangle credited.
  auto describe = [&](simt::ThreadCtx& ctx, simt::NoState&, std::uint64_t chunk) {
    auto t_lo = table_lo_arr(ctx);
    auto t_hi = table_hi_arr(ctx);
    auto k_lo = key_lo_arr(ctx);
    auto e_id = edge_id_arr(ctx);
    auto pa = prefix_a(ctx);
    const std::uint32_t tid = ctx.thread_in_block();
    const std::uint64_t e = chunk * n + tid;
    std::uint32_t d_tlo = 0, d_thi = 0, d_klo = 0, d_klen = 0;
    if (e < g.num_edges) {
      const std::uint32_t u = ctx.load(g.edge_u, e, TCGPU_SITE());
      const std::uint32_t v = ctx.load(g.edge_v, e, TCGPU_SITE());
      const std::uint32_t ub = ctx.load(g.row_ptr, u, TCGPU_SITE());
      const std::uint32_t ue = ctx.load(g.row_ptr, u + 1, TCGPU_SITE());
      const std::uint32_t vb = ctx.load(g.row_ptr, v, TCGPU_SITE());
      const std::uint32_t ve = ctx.load(g.row_ptr, v + 1, TCGPU_SITE());
      const std::uint32_t a_lo = intersect::upper_bound(ctx, g.col, ub, ue, v);
      if (ue - a_lo != 0 && ve - vb != 0) {
        d_tlo = a_lo;
        d_thi = ue;
        d_klo = vb;
        d_klen = ve - vb;
      }
    }
    ctx.shared_store(t_lo, tid, d_tlo, TCGPU_SITE());
    ctx.shared_store(t_hi, tid, d_thi, TCGPU_SITE());
    ctx.shared_store(k_lo, tid, d_klo, TCGPU_SITE());
    ctx.shared_store(e_id, tid, static_cast<std::uint32_t>(e), TCGPU_SITE());
    ctx.shared_store(pa, tid, d_klen, TCGPU_SITE());
  };

  auto scan_round = [&](std::uint32_t stride, bool from_a) {
    return [&, stride, from_a](simt::ThreadCtx& ctx, simt::NoState&, std::uint64_t) {
      auto src = from_a ? prefix_a(ctx) : prefix_b(ctx);
      auto dst = from_a ? prefix_b(ctx) : prefix_a(ctx);
      const std::uint32_t tid = ctx.thread_in_block();
      std::uint32_t v = ctx.shared_load(src, tid, TCGPU_SITE());
      if (stride < n && tid >= stride) {
        v += ctx.shared_load(src, tid - stride, TCGPU_SITE());
      }
      ctx.shared_store(dst, tid, v, TCGPU_SITE());
    };
  };

  auto count_phase = [&](simt::ThreadCtx& ctx, simt::NoState&, std::uint64_t) {
    auto t_lo = table_lo_arr(ctx);
    auto t_hi = table_hi_arr(ctx);
    auto k_lo = key_lo_arr(ctx);
    auto e_id = edge_id_arr(ctx);
    auto prefix = prefix_a(ctx);

    const std::uint32_t total = ctx.shared_load(prefix, n - 1, TCGPU_SITE());
    std::uint32_t cur_base = 0, cur_limit = 0;
    std::uint32_t cur_tlo = 0, cur_thi = 0, cur_klo = 0, cur_eid = 0;
    std::uint32_t resume = 0;

    for (std::uint32_t kidx = ctx.thread_in_block(); kidx < total; kidx += n) {
      if (kidx >= cur_limit) {
        const std::uint32_t j = intersect::shared_prefix_search(ctx, prefix, n, kidx);
        cur_base = j == 0 ? 0 : ctx.shared_load(prefix, j - 1, TCGPU_SITE());
        cur_limit = ctx.shared_load(prefix, j, TCGPU_SITE());
        cur_tlo = ctx.shared_load(t_lo, j, TCGPU_SITE());
        cur_thi = ctx.shared_load(t_hi, j, TCGPU_SITE());
        cur_klo = ctx.shared_load(k_lo, j, TCGPU_SITE());
        cur_eid = ctx.shared_load(e_id, j, TCGPU_SITE());
        resume = cur_tlo;
      }
      const std::uint32_t key_pos = cur_klo + (kidx - cur_base);
      const std::uint32_t key = ctx.load(g.col, key_pos, TCGPU_SITE());
      const auto hit = intersect::monotone_search(ctx, g.col, resume, cur_thi, key);
      if (hit.found) {
        // Triangle (u,v,w): credit (u,v) = the chunk edge, (u,w) = the
        // table hit position, (v,w) = the key position.
        ctx.atomic_add(support, cur_eid, 1u, TCGPU_SITE());
        ctx.atomic_add(support, hit.pos, 1u, TCGPU_SITE());
        ctx.atomic_add(support, key_pos, 1u, TCGPU_SITE());
      }
      resume = hit.resume;
    }
  };

  SupportResult result;
  result.stats = simt::launch_items<simt::NoState>(
      spec, cfg, chunks, describe, scan_round(1, true), scan_round(2, false),
      scan_round(4, true), scan_round(8, false), scan_round(16, true),
      scan_round(32, false), scan_round(64, true), scan_round(128, false),
      scan_round(256, true), scan_round(512, false), count_phase);

  std::uint64_t sum = 0;
  for (std::uint32_t e = 0; e < g.num_edges; ++e) sum += support.host_data()[e];
  result.triangles = sum / 3;
  return result;
}

}  // namespace tcgpu::tc
