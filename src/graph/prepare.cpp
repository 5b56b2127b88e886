#include "graph/prepare.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <stdexcept>
#include <utility>

#ifdef _OPENMP
#include <omp.h>
#endif

namespace tcgpu::graph {

namespace {

std::size_t worker_count(std::size_t items) {
#ifdef _OPENMP
  const std::size_t t = static_cast<std::size_t>(omp_get_max_threads());
#else
  const std::size_t t = 1;
#endif
  // One chunk per thread, but never chunks so small the bookkeeping wins.
  return std::clamp<std::size_t>(std::min(t, items / 4096), 1, 256);
}

struct ChunkRange {
  std::size_t lo, hi;
};

ChunkRange chunk_of(std::size_t n, std::size_t chunks, std::size_t c) {
  const std::size_t per = (n + chunks - 1) / chunks;
  const std::size_t lo = std::min(n, c * per);
  return {lo, std::min(n, lo + per)};
}

/// OMP-partitioned LSD radix sort over the low `key_bits` bits: per-thread
/// 256-bin histograms, bin-major exclusive prefix, stable scatter. The
/// output permutation is identical to std::sort (keys are unique up to
/// duplicates, and LSD byte passes are stable), just computed in parallel.
void radix_sort_keys(std::vector<std::uint64_t>& keys, int key_bits) {
  const std::size_t n = keys.size();
  if (n < 1u << 14) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  const int passes = std::max(1, (key_bits + 7) / 8);
  const std::size_t chunks = worker_count(n);
  std::vector<std::uint64_t> tmp(n);
  std::vector<std::uint64_t> hist(chunks * 256);

  std::uint64_t* src = keys.data();
  std::uint64_t* dst = tmp.data();
  for (int pass = 0; pass < passes; ++pass) {
    const int shift = pass * 8;
    std::fill(hist.begin(), hist.end(), 0);
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
      const auto [lo, hi] = chunk_of(n, chunks, static_cast<std::size_t>(c));
      std::uint64_t* h = hist.data() + static_cast<std::size_t>(c) * 256;
      for (std::size_t i = lo; i < hi; ++i) h[(src[i] >> shift) & 0xFF]++;
    }
    // Bin-major exclusive prefix: all chunks' bin-0 slots, then bin-1, ...
    std::uint64_t run = 0;
    for (std::size_t bin = 0; bin < 256; ++bin) {
      for (std::size_t c = 0; c < chunks; ++c) {
        const std::uint64_t count = hist[c * 256 + bin];
        hist[c * 256 + bin] = run;
        run += count;
      }
    }
#pragma omp parallel for schedule(static)
    for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
      const auto [lo, hi] = chunk_of(n, chunks, static_cast<std::size_t>(c));
      std::uint64_t* h = hist.data() + static_cast<std::size_t>(c) * 256;
      for (std::size_t i = lo; i < hi; ++i) {
        dst[h[(src[i] >> shift) & 0xFF]++] = src[i];
      }
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) keys.swap(tmp);
}

/// Parallel stable compaction of the sorted key array: drops adjacent
/// duplicates. Writes through `scratch` (destinations can underrun another
/// chunk's source region, so in-place would race), then swaps back.
void dedup_sorted_keys(std::vector<std::uint64_t>& keys,
                       std::vector<std::uint64_t>& scratch) {
  const std::size_t n = keys.size();
  if (n == 0) return;
  const std::size_t chunks = worker_count(n);
  std::vector<std::size_t> uniques(chunks + 1, 0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
    const auto [lo, hi] = chunk_of(n, chunks, static_cast<std::size_t>(c));
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      count += (i == 0 || keys[i] != keys[i - 1]) ? 1 : 0;
    }
    uniques[static_cast<std::size_t>(c) + 1] = count;
  }
  for (std::size_t c = 0; c < chunks; ++c) uniques[c + 1] += uniques[c];
  scratch.resize(n);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
    const auto [lo, hi] = chunk_of(n, chunks, static_cast<std::size_t>(c));
    std::size_t out = uniques[static_cast<std::size_t>(c)];
    for (std::size_t i = lo; i < hi; ++i) {
      if (i == 0 || keys[i] != keys[i - 1]) scratch[out++] = keys[i];
    }
  }
  keys.swap(scratch);
  keys.resize(uniques[chunks]);
}

int vertex_bits(VertexId num_vertices) {
  if (num_vertices <= 1) return 1;
  return std::bit_width(static_cast<std::uint32_t>(num_vertices - 1));
}

/// Parallel CSR assembly from directed (src, dst) emissions: atomic degree
/// count, exclusive prefix, atomic scatter, per-row sorts. `emit` is called
/// twice (count phase, scatter phase) and must enumerate the same pairs.
template <class EmitFn>
Csr assemble_csr(VertexId num_vertices, std::uint64_t num_directed,
                 EmitFn&& emit) {
  if (num_directed > 0xFFFFFFFFull) {
    throw std::length_error("csr_from_pairs: edge count exceeds 32-bit index");
  }
  std::vector<EdgeIndex> row_ptr(static_cast<std::size_t>(num_vertices) + 1, 0);
  std::vector<EdgeIndex> deg(num_vertices, 0);
  emit(/*count_phase=*/true, deg.data(), static_cast<VertexId*>(nullptr));
  for (VertexId v = 0; v < num_vertices; ++v) row_ptr[v + 1] = row_ptr[v] + deg[v];
  std::vector<VertexId> col(static_cast<std::size_t>(num_directed));
  std::vector<EdgeIndex> cursor(row_ptr.begin(), row_ptr.end() - 1);
  emit(/*count_phase=*/false, cursor.data(), col.data());
#pragma omp parallel for schedule(guided)
  for (std::ptrdiff_t v = 0; v < static_cast<std::ptrdiff_t>(num_vertices); ++v) {
    std::sort(col.begin() + row_ptr[static_cast<std::size_t>(v)],
              col.begin() + row_ptr[static_cast<std::size_t>(v) + 1]);
  }
  return Csr(std::move(row_ptr), std::move(col));
}

}  // namespace

Coo clean_edges(Coo raw) {
  const std::size_t n_raw = raw.edges.size();
  const VertexId V = raw.num_vertices;
  const int vbits = vertex_bits(V);

  // Pack canonical (min,max) pairs into sortable keys, dropping self-loops.
  // Stable per-chunk compaction so the filtered sequence is deterministic.
  const std::size_t chunks = worker_count(n_raw);
  std::vector<std::size_t> kept(chunks + 1, 0);
  std::atomic<bool> out_of_range{false};
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
    const auto [lo, hi] = chunk_of(n_raw, chunks, static_cast<std::size_t>(c));
    std::size_t count = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const auto [u, v] = raw.edges[i];
      if (u >= V || v >= V) out_of_range.store(true, std::memory_order_relaxed);
      count += (u != v) ? 1 : 0;
    }
    kept[static_cast<std::size_t>(c) + 1] = count;
  }
  if (out_of_range.load()) {
    throw std::invalid_argument("clean_edges: vertex id out of range");
  }
  for (std::size_t c = 0; c < chunks; ++c) kept[c + 1] += kept[c];

  std::vector<std::uint64_t> keys(kept[chunks]);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(chunks); ++c) {
    const auto [lo, hi] = chunk_of(n_raw, chunks, static_cast<std::size_t>(c));
    std::size_t out = kept[static_cast<std::size_t>(c)];
    for (std::size_t i = lo; i < hi; ++i) {
      const auto [u, v] = raw.edges[i];
      if (u == v) continue;
      const std::uint64_t a = std::min(u, v), b = std::max(u, v);
      keys[out++] = (a << vbits) | b;
    }
  }
  raw.edges = {};  // release the raw storage before the radix scratch

  radix_sort_keys(keys, 2 * vbits);
  {
    std::vector<std::uint64_t> scratch;
    dedup_sorted_keys(keys, scratch);
  }

  // Compact ids: keep only vertices that touch an edge, order-preserving.
  const std::uint64_t vmask = (vbits >= 64) ? ~0ull : ((1ull << vbits) - 1);
  std::vector<std::uint8_t> touched(V, 0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(keys.size()); ++i) {
    const std::uint64_t k = keys[static_cast<std::size_t>(i)];
    touched[k >> vbits] = 1;  // benign write-write race, same value
    touched[k & vmask] = 1;
  }
  std::vector<VertexId> remap(V);
  const std::size_t vchunks = worker_count(V);
  std::vector<VertexId> base(vchunks + 1, 0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(vchunks); ++c) {
    const auto [lo, hi] = chunk_of(V, vchunks, static_cast<std::size_t>(c));
    VertexId count = 0;
    for (std::size_t v = lo; v < hi; ++v) count += touched[v];
    base[static_cast<std::size_t>(c) + 1] = count;
  }
  for (std::size_t c = 0; c < vchunks; ++c) base[c + 1] += base[c];
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t c = 0; c < static_cast<std::ptrdiff_t>(vchunks); ++c) {
    const auto [lo, hi] = chunk_of(V, vchunks, static_cast<std::size_t>(c));
    VertexId next = base[static_cast<std::size_t>(c)];
    for (std::size_t v = lo; v < hi; ++v) {
      remap[v] = touched[v] ? next++ : kInvalidVertex;
    }
  }

  Coo out;
  out.num_vertices = base[vchunks];
  out.edges.resize(keys.size());
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(keys.size()); ++i) {
    const std::uint64_t k = keys[static_cast<std::size_t>(i)];
    out.edges[static_cast<std::size_t>(i)] = {
        remap[k >> vbits], remap[static_cast<VertexId>(k & vmask)]};
  }
  return out;
}

Csr build_undirected_csr(const Coo& clean) {
  const std::uint64_t directed = 2 * static_cast<std::uint64_t>(clean.edges.size());
  return assemble_csr(
      clean.num_vertices, directed,
      [&](bool count_phase, EdgeIndex* slots, VertexId* col) {
#pragma omp parallel for schedule(static)
        for (std::ptrdiff_t i = 0;
             i < static_cast<std::ptrdiff_t>(clean.edges.size()); ++i) {
          const auto [u, v] = clean.edges[static_cast<std::size_t>(i)];
          if (count_phase) {
#pragma omp atomic
            slots[u]++;
#pragma omp atomic
            slots[v]++;
          } else {
            EdgeIndex iu, iv;
#pragma omp atomic capture
            iu = slots[u]++;
#pragma omp atomic capture
            iv = slots[v]++;
            col[iu] = v;
            col[iv] = u;
          }
        }
      });
}

Csr build_directed_csr(VertexId num_vertices, const std::vector<Edge>& edges) {
  return assemble_csr(
      num_vertices, edges.size(),
      [&](bool count_phase, EdgeIndex* slots, VertexId* col) {
#pragma omp parallel for schedule(static)
        for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(edges.size());
             ++i) {
          const auto [u, v] = edges[static_cast<std::size_t>(i)];
          if (count_phase) {
#pragma omp atomic
            slots[u]++;
          } else {
            EdgeIndex iu;
#pragma omp atomic capture
            iu = slots[u]++;
            col[iu] = v;
          }
        }
      });
}

PreparedDag prepare_dag(Coo&& raw) {
  Coo clean = clean_edges(std::move(raw));
  const VertexId V = clean.num_vertices;
  const std::uint64_t E = clean.edges.size();
  if (E > 0xFFFFFFFFull) {
    throw std::length_error("prepare_dag: cleaned edge count exceeds 32-bit index");
  }

  // Undirected degrees — no symmetric CSR required.
  std::vector<EdgeIndex> deg(V, 0);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(E); ++i) {
    const auto [u, v] = clean.edges[static_cast<std::size_t>(i)];
#pragma omp atomic
    deg[u]++;
#pragma omp atomic
    deg[v]++;
  }
  const std::vector<std::uint64_t> hist = histogram_of(deg);

  // rank[old id] = new id: a counting sort by (degree asc, id asc) —
  // exactly std::stable_sort by degree, in O(V + max_degree).
  std::vector<VertexId> rank(V);
  {
    std::vector<std::uint64_t> next(hist.size(), 0);
    for (std::size_t d = 1; d < hist.size(); ++d) {
      next[d] = next[d - 1] + hist[d - 1];
    }
    for (VertexId v = 0; v < V; ++v) {
      rank[v] = static_cast<VertexId>(next[deg[v]]++);
    }
  }

  // DODG straight from the cleaned edges: the oriented edge of (a, b) is
  // (min(ra, rb), max(ra, rb)); row sorting erases scatter order.
  PreparedDag out;
  out.dag = assemble_csr(
      V, E, [&](bool count_phase, EdgeIndex* slots, VertexId* col) {
#pragma omp parallel for schedule(static)
        for (std::ptrdiff_t i = 0; i < static_cast<std::ptrdiff_t>(E); ++i) {
          const auto [a, b] = clean.edges[static_cast<std::size_t>(i)];
          const VertexId ra = rank[a], rb = rank[b];
          const VertexId src = std::min(ra, rb);
          if (count_phase) {
#pragma omp atomic
            slots[src]++;
          } else {
            EdgeIndex idx;
#pragma omp atomic capture
            idx = slots[src]++;
            col[idx] = std::max(ra, rb);
          }
        }
      });

  std::vector<EdgeIndex> out_deg(V);
#pragma omp parallel for schedule(static)
  for (std::ptrdiff_t u = 0; u < static_cast<std::ptrdiff_t>(V); ++u) {
    out_deg[static_cast<std::size_t>(u)] = out.dag.degree(static_cast<VertexId>(u));
  }
  out.stats = stats_from_histograms(V, E, hist, histogram_of(out_deg));
  return out;
}

Csr symmetrize_dag(const Csr& dag) {
  const VertexId V = dag.num_vertices();
  std::atomic<bool> malformed{false};
#pragma omp parallel for schedule(guided)
  for (std::ptrdiff_t u = 0; u < static_cast<std::ptrdiff_t>(V); ++u) {
    const auto row = dag.neighbors(static_cast<VertexId>(u));
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (row[k] <= static_cast<VertexId>(u) || (k > 0 && row[k] <= row[k - 1])) {
        malformed.store(true, std::memory_order_relaxed);
      }
    }
  }
  if (malformed.load()) {
    throw std::invalid_argument(
        "symmetrize_dag: DAG must be id-oriented (u < v) with sorted rows");
  }
  // Each edge (u, w) lands in both rows; a final per-row sort restores the
  // ascending order, which for an id-oriented DAG is exactly "in-neighbors
  // (< v) first, out-neighbors (> v) after".
  const auto& rp = dag.row_ptr();
  const auto& cl = dag.col();
  return assemble_csr(
      V, 2 * static_cast<std::uint64_t>(dag.num_edges()),
      [&](bool count_phase, EdgeIndex* slots, VertexId* col) {
#pragma omp parallel for schedule(guided)
        for (std::ptrdiff_t u = 0; u < static_cast<std::ptrdiff_t>(V); ++u) {
          for (EdgeIndex i = rp[static_cast<std::size_t>(u)];
               i < rp[static_cast<std::size_t>(u) + 1]; ++i) {
            const VertexId w = cl[i];
            if (count_phase) {
#pragma omp atomic
              slots[u]++;
#pragma omp atomic
              slots[w]++;
            } else {
              EdgeIndex iu, iw;
#pragma omp atomic capture
              iu = slots[u]++;
#pragma omp atomic capture
              iw = slots[w]++;
              col[iu] = w;
              col[iw] = static_cast<VertexId>(u);
            }
          }
        }
      });
}

}  // namespace tcgpu::graph
