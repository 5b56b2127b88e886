#include "stream/dynamic_graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "graph/cpu_reference.hpp"
#include "graph/prepare.hpp"
#include "graph/stats.hpp"
#include "stream/delta_kernel.hpp"

namespace tcgpu::stream {

namespace {

/// Sanity cap on op vertex ids: a typo'd id must not allocate gigabytes of
/// per-vertex state. Ops past it are counted as skipped.
constexpr graph::VertexId kMaxVertices = 1u << 27;

/// Copy-on-write segments covering ids [0, V).
std::size_t segments_for(graph::VertexId V) {
  return (static_cast<std::size_t>(V) + Snapshot::kSegmentSize - 1) >>
         Snapshot::kSegmentShift;
}

/// Segment `s` of a V-vertex graph whose undirected rows are `row(x)`.
template <class RowFn>
std::shared_ptr<const Snapshot::Segment> build_segment(std::size_t s,
                                                       graph::VertexId V,
                                                       RowFn&& row) {
  auto seg = std::make_shared<Snapshot::Segment>();
  seg->off.assign(Snapshot::kSegmentSize + 1, 0);
  for (std::uint32_t local = 0; local < Snapshot::kSegmentSize; ++local) {
    const std::uint64_t id = (s << Snapshot::kSegmentShift) + local;
    if (id < V) {
      const auto r = row(static_cast<graph::VertexId>(id));
      seg->adj.insert(seg->adj.end(), r.begin(), r.end());
    }
    seg->off[local + 1] = static_cast<graph::EdgeIndex>(seg->adj.size());
  }
  return seg;
}

void hist_move(std::vector<std::uint64_t>& h, graph::EdgeIndex from,
               graph::EdgeIndex to) {
  if (to >= h.size()) h.resize(to + 1, 0);
  --h[from];
  ++h[to];
}

}  // namespace

DynamicGraph::DynamicGraph(const graph::Csr& dag, Config cfg)
    : cfg_(std::move(cfg)) {
  const graph::VertexId V = dag.num_vertices();
  // symmetrize_dag validates the id-orientation contract and hands back each
  // row as in-neighbors (< v) then out-neighbors (> v), ascending — exactly
  // the segment layout, so the seed is a row copy instead of a transpose.
  graph::Csr undirected;
  try {
    undirected = graph::symmetrize_dag(dag);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "DynamicGraph: DAG must be id-oriented (u < v) with sorted rows");
  }

  auto snap = std::make_shared<Snapshot>();
  snap->version_ = 0;
  snap->num_vertices_ = V;
  snap->num_edges_ = dag.num_edges();
  snap->triangles_ = graph::count_triangles_forward_parallel(dag);
  const std::size_t nseg = segments_for(V);
  snap->segments_.reserve(nseg);
  for (std::size_t s = 0; s < nseg; ++s) {
    snap->segments_.push_back(build_segment(
        s, V, [&](graph::VertexId v) { return undirected.neighbors(v); }));
  }

  degree_.assign(V, 0);
  out_degree_.assign(V, 0);
  for (graph::VertexId v = 0; v < V; ++v) {
    out_degree_[v] = dag.degree(v);
    degree_[v] = undirected.degree(v);
  }
  deg_hist_ = graph::histogram_of(degree_);
  out_hist_ = graph::histogram_of(out_degree_);
  num_edges_ = dag.num_edges();

  snap->stats_ = make_stats();
  head_ = std::move(snap);
}

graph::GraphStats DynamicGraph::make_stats() const {
  return graph::stats_from_histograms(static_cast<graph::VertexId>(degree_.size()),
                                      num_edges_, deg_hist_, out_hist_);
}

CommitResult DynamicGraph::commit(std::span<const EdgeOp> ops) {
  std::lock_guard lk(mu_);
  const std::shared_ptr<const Snapshot> base = head_;
  CommitResult res;
  res.version = base->version();
  res.triangles = base->triangles();

  const graph::VertexId base_V = base->num_vertices();
  graph::VertexId cur_V = base_V;

  // ---- pass 1: normalize ops and stage wedge jobs ------------------------
  // The overlay holds the evolving undirected rows of touched vertices;
  // every job captures its endpoints' neighborhoods at its point of the
  // batch, so the kernel's deltas compose exactly like sequential ops.
  std::unordered_map<graph::VertexId, std::vector<graph::VertexId>> overlay;
  auto base_row = [&](graph::VertexId x) -> std::span<const graph::VertexId> {
    return x < base_V ? base->neighbors(x)
                      : std::span<const graph::VertexId>{};
  };
  auto cur_row = [&](graph::VertexId x) -> std::span<const graph::VertexId> {
    const auto it = overlay.find(x);
    if (it != overlay.end()) return {it->second.data(), it->second.size()};
    return base_row(x);
  };
  auto mut_row = [&](graph::VertexId x) -> std::vector<graph::VertexId>& {
    auto it = overlay.find(x);
    if (it == overlay.end()) {
      const auto r = base_row(x);
      it = overlay.emplace(x, std::vector<graph::VertexId>(r.begin(), r.end()))
               .first;
    }
    return it->second;
  };

  std::vector<graph::VertexId> staged;
  std::vector<WedgeJob> jobs;
  std::vector<bool> inserts;  // per job: the op's sign

  for (const EdgeOp& op : ops) {
    const graph::VertexId a = std::min(op.u, op.v);
    const graph::VertexId b = std::max(op.u, op.v);
    if (a == b || b >= kMaxVertices) {
      ++res.skipped;
      continue;
    }
    const auto ra = cur_row(a);
    const bool present = std::binary_search(ra.begin(), ra.end(), b);
    if (op.insert == present) {  // duplicate insert or absent delete
      ++res.skipped;
      continue;
    }
    if (op.insert && b >= cur_V) {
      const graph::VertexId grown = b + 1 - cur_V;
      degree_.resize(b + 1, 0);
      out_degree_.resize(b + 1, 0);
      deg_hist_[0] += grown;
      out_hist_[0] += grown;
      cur_V = b + 1;
    }

    // Stage the pre-op neighborhoods. Neither contains a common element
    // through the edge itself (w == a or w == b is impossible), so the
    // intersection is exactly the wedge set the op opens or closes.
    const auto rb = cur_row(b);
    WedgeJob w;
    w.a_lo = static_cast<std::uint32_t>(staged.size());
    staged.insert(staged.end(), ra.begin(), ra.end());
    w.a_hi = static_cast<std::uint32_t>(staged.size());
    w.b_lo = w.a_hi;
    staged.insert(staged.end(), rb.begin(), rb.end());
    w.b_hi = static_cast<std::uint32_t>(staged.size());
    jobs.push_back(w);
    inserts.push_back(op.insert);

    auto& va = mut_row(a);
    auto& vb = mut_row(b);
    const graph::EdgeIndex oa = out_degree_[a];
    if (op.insert) {
      va.insert(std::lower_bound(va.begin(), va.end(), b), b);
      vb.insert(std::lower_bound(vb.begin(), vb.end(), a), a);
      hist_move(deg_hist_, degree_[a], degree_[a] + 1);
      hist_move(deg_hist_, degree_[b], degree_[b] + 1);
      ++degree_[a];
      ++degree_[b];
      hist_move(out_hist_, oa, oa + 1);  // the out-edge lives with min id
      ++out_degree_[a];
      ++num_edges_;
      ++res.inserted;
    } else {
      va.erase(std::lower_bound(va.begin(), va.end(), b));
      vb.erase(std::lower_bound(vb.begin(), vb.end(), a));
      hist_move(deg_hist_, degree_[a], degree_[a] - 1);
      hist_move(deg_hist_, degree_[b], degree_[b] - 1);
      --degree_[a];
      --degree_[b];
      hist_move(out_hist_, oa, oa - 1);
      --out_degree_[a];
      --num_edges_;
      ++res.removed;
    }
  }

  res.wedge_jobs = static_cast<std::uint32_t>(jobs.size());
  if (res.inserted + res.removed == 0) {
    return res;  // nothing effective: version does not move
  }

  // ---- pass 2: the metered delta kernel, folded in batch order -----------
  const DeltaOutcome delta = intersect_wedges(cfg_.spec, staged, jobs);
  res.stats = delta.stats;
  std::int64_t dtri = 0;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const auto n = static_cast<std::int64_t>(delta.counts[j]);
    dtri += inserts[j] ? n : -n;
  }
  res.delta_triangles = dtri;

  // ---- pass 3: rebuild only the segments holding an op endpoint ----------
  // The overlay's keys are exactly the endpoints of effective ops; segments
  // past the old vertex count are new. Everything else shares the previous
  // version's segment.
  const std::size_t old_nseg = base->num_segments();
  const std::size_t new_nseg = segments_for(cur_V);
  std::vector<bool> rebuild(new_nseg, false);
  for (const auto& [x, unused] : overlay) {
    rebuild[x >> Snapshot::kSegmentShift] = true;
  }

  auto snap = std::make_shared<Snapshot>();
  snap->version_ = base->version() + 1;
  snap->num_vertices_ = cur_V;
  snap->num_edges_ = num_edges_;
  snap->triangles_ =
      static_cast<std::uint64_t>(static_cast<std::int64_t>(base->triangles()) + dtri);
  snap->stats_ = make_stats();
  snap->segments_.reserve(new_nseg);
  for (std::size_t s = 0; s < new_nseg; ++s) {
    snap->segments_.push_back(rebuild[s] || s >= old_nseg
                                  ? build_segment(s, cur_V, cur_row)
                                  : base->segment(s));
  }

  history_.push_back(head_);
  while (history_.size() > cfg_.history) history_.pop_front();
  head_ = snap;
  res.changed = true;
  res.version = snap->version_;
  res.triangles = snap->triangles_;
  return res;
}

std::shared_ptr<const Snapshot> DynamicGraph::snapshot() const {
  std::lock_guard lk(mu_);
  return head_;
}

std::shared_ptr<const Snapshot> DynamicGraph::snapshot_at(
    std::uint64_t version) const {
  std::lock_guard lk(mu_);
  if (head_->version() == version) return head_;
  for (const auto& s : history_) {
    if (s->version() == version) return s;
  }
  return nullptr;
}

std::uint64_t DynamicGraph::version() const {
  std::lock_guard lk(mu_);
  return head_->version();
}

std::uint64_t DynamicGraph::triangles() const {
  std::lock_guard lk(mu_);
  return head_->triangles();
}

}  // namespace tcgpu::stream
