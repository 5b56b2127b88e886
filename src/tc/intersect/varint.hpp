// Varint-decode machinery for the compressed-CSR kernels (CMerge, CStage).
//
// A compressed row is (base, LEB128 delta stream) — graph::CompressedCsr's
// layout, uploaded with the bytes packed four-per-u32-word. Decode is
// sequential, which is exactly the merge family's access pattern: the
// cursor below replaces "load col[i]" with "extract the next varint",
// costing one metered word load per four stream bytes (the bandwidth win)
// plus one metered ALU op per byte (the compute price). VarintCursor is the
// only reader of the packed stream, so the byte/word layout here and the
// encoder in graph/csr.hpp can never drift independently.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "graph/csr.hpp"
#include "simt/launch.hpp"
#include "tc/device_graph.hpp"

namespace tcgpu::tc::intersect {

/// Device-side view of one compressed adjacency image — either the graph's
/// own upload_compressed buffers or a kernel's self-staged scratch copy.
struct CompressedView {
  const simt::DeviceBuffer<std::uint32_t>* base = nullptr;  ///< size V
  const simt::DeviceBuffer<std::uint32_t>* off = nullptr;   ///< size V+1
  const simt::DeviceBuffer<std::uint32_t>* data = nullptr;  ///< packed bytes
};

/// Sequential metered cursor over one compressed row. next() yields the
/// row's neighbors in ascending order: the first from the preloaded base
/// (no stream access), the rest by LEB128 extraction with the current
/// stream word register-cached — crossing a word boundary costs one global
/// load, every byte costs one ALU op.
class VarintCursor {
 public:
  /// `first` = the row's base neighbor, `byte_lo` = its stream offset,
  /// `degree` = its neighbor count (all loaded by the caller, whose sites
  /// keep the row-metadata traffic attributed to the kernel).
  VarintCursor(std::uint32_t first, std::uint32_t byte_lo, std::uint32_t degree)
      : value_(first), pos_(byte_lo), remaining_(degree) {}

  bool done() const { return remaining_ == 0; }

  std::uint32_t next(simt::ThreadCtx& ctx,
                     const simt::DeviceBuffer<std::uint32_t>& data) {
    if (!emitted_first_) {
      emitted_first_ = true;
      --remaining_;
      return value_;
    }
    std::uint32_t delta = 0;
    int shift = 0;
    std::uint32_t byte;
    do {
      const std::uint32_t widx = pos_ >> 2;
      if (widx != word_idx_) {
        word_ = ctx.load(data, widx, TCGPU_SITE());
        word_idx_ = widx;
      }
      byte = (word_ >> ((pos_ & 3u) * 8u)) & 0xFFu;
      ctx.compute(1);  // extract + accumulate one 7-bit group
      ++pos_;
      delta |= (byte & 0x7Fu) << shift;
      shift += 7;
    } while (byte & 0x80u);
    value_ += delta + 1;
    --remaining_;
    return value_;
  }

 private:
  std::uint32_t value_;
  std::uint32_t pos_;
  std::uint32_t remaining_;
  std::uint32_t word_ = 0;
  std::uint32_t word_idx_ = 0xFFFFFFFFu;
  bool emitted_first_ = false;
};

/// Register-cached merge of two compressed rows (the Polak loop shape with
/// both operands streamed). Counts matches whose position in row A is
/// >= `a_from` — 0 gives the plain intersection; CStage passes its staged
/// prefix length to count only the tail contribution it could not probe in
/// shared memory. Cursors advance exactly once per consumed element, so the
/// decode cost is one pass over each stream.
inline std::uint64_t merge_cursor_cursor(
    simt::ThreadCtx& ctx, VarintCursor a,
    const simt::DeviceBuffer<std::uint32_t>& a_data, VarintCursor b,
    const simt::DeviceBuffer<std::uint32_t>& b_data, std::uint32_t a_from = 0) {
  std::uint64_t local = 0;
  if (a.done() || b.done()) return 0;
  std::uint32_t ai = 0;
  std::uint32_t x = a.next(ctx, a_data);
  std::uint32_t y = b.next(ctx, b_data);
  while (true) {
    if (x == y) {
      if (ai >= a_from) ++local;
      if (a.done() || b.done()) break;
      x = a.next(ctx, a_data);
      ++ai;
      y = b.next(ctx, b_data);
    } else if (x < y) {
      if (a.done()) break;
      x = a.next(ctx, a_data);
      ++ai;
    } else {
      if (b.done()) break;
      y = b.next(ctx, b_data);
    }
  }
  return local;
}

/// Register-cached merge of a compressed row against an index-probed sorted
/// list (CStage's shared-staged anchor row). The probe owns its metered
/// accesses, so shared-memory traffic stays attributed to the caller.
template <class ProbeB>
std::uint64_t merge_cursor_probed(simt::ThreadCtx& ctx, VarintCursor a,
                                  const simt::DeviceBuffer<std::uint32_t>& a_data,
                                  std::uint32_t nb, ProbeB&& probe_b) {
  std::uint64_t local = 0;
  if (a.done() || nb == 0) return 0;
  std::uint32_t j = 0;
  std::uint32_t x = a.next(ctx, a_data);
  std::uint32_t y = probe_b(j);
  while (true) {
    if (x == y) {
      ++local;
      if (a.done() || ++j >= nb) break;
      x = a.next(ctx, a_data);
      y = probe_b(j);
    } else if (x < y) {
      if (a.done()) break;
      x = a.next(ctx, a_data);
    } else {
      if (++j >= nb) break;
      y = probe_b(j);
    }
  }
  return local;
}

/// Self-staged compressed copy of a raw image's adjacency — the BSR pattern:
/// host-side encode once per count() call, allocations on the caller's
/// device after the raw image, so the raw image itself is untouched.
struct StagedCompressed {
  simt::DeviceBuffer<std::uint32_t> base;
  simt::DeviceBuffer<std::uint32_t> off;
  simt::DeviceBuffer<std::uint32_t> data;
};

inline StagedCompressed stage_compressed(simt::Device& dev,
                                         const DeviceGraph& g) {
  const auto* rp = g.row_ptr.host_data();
  const auto* cp = g.col.host_data();
  std::vector<std::uint32_t> base(g.num_vertices, 0);
  std::vector<std::uint32_t> off(g.num_vertices + 1, 0);
  std::vector<std::uint8_t> bytes;
  for (std::uint32_t v = 0; v < g.num_vertices; ++v) {
    if (rp[v] < rp[v + 1]) {
      base[v] = cp[rp[v]];
      for (std::uint32_t i = rp[v] + 1; i < rp[v + 1]; ++i) {
        graph::varint_append(bytes, cp[i] - cp[i - 1] - 1);
      }
    }
    off[v + 1] = static_cast<std::uint32_t>(bytes.size());
  }
  StagedCompressed s;
  s.base = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, base.size()),
                                    "cmp_base");
  std::copy(base.begin(), base.end(), s.base.host_data());
  s.off = dev.alloc<std::uint32_t>(off.size(), "cmp_off");
  std::copy(off.begin(), off.end(), s.off.host_data());
  const std::size_t words = (bytes.size() + 3) / 4;
  s.data = dev.alloc<std::uint32_t>(std::max<std::size_t>(1, words), "cmp_data");
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    s.data.host_data()[i >> 2] |= static_cast<std::uint32_t>(bytes[i])
                                  << ((i & 3) * 8);
  }
  return s;
}

}  // namespace tcgpu::tc::intersect
