// Warp-level aggregation of lane events into architectural events.
//
// Lanes of a warp are executed sequentially by the host. Real SIMT hardware
// executes them in lockstep, so the aggregator reconstructs warp-level
// instructions by aligning events across lanes on (call site, occurrence
// index): the k-th access a lane issues at a given program point lines up
// with the k-th access every other lane issues there. For the
// loop-trip-count divergence that dominates triangle-counting kernels this
// alignment is exact; lanes that ran out of work simply have no k-th
// occurrence and count as inactive — which is precisely what
// warp_execution_efficiency measures.
//
// Events are bucketed by (call site, lane) as they are recorded. The
// launcher runs a flush unit's lanes 0..31 one after another, so each call
// site's events arrive lane-major: every event lane 0 issued there, then lane
// 1's, and so on. A site therefore keeps one event array cut into per-lane
// slices, each in program order — the (site, lane) buckets, already sorted.
// Sites get dense local ids at record time, in first-appearance order.
// Recording lane-major is a precondition of record(); it also makes that
// order lane-major. flush() walks the groups sites first in that order,
// occurrences ascending, lanes ascending within a group. One path serves
// converged and divergent warps alike.
//
// record() runs once per metered lane access, so its steady state is inline:
// a site-map hit, opening the lane's slice when the lane changes (with the
// lane-major check), and a store into the site's spare capacity. One
// out-of-line call remains, for a site's first event in a unit and for
// buffer growth; a lane-major violation throws from a cold function.
//
// Per aligned group the aggregator derives:
//   * global kinds — one request, plus one transaction per distinct
//     32-byte sector touched by the group's addresses (nvprof's definition);
//   * shared kinds — one request, plus bank-conflict degree: accesses that
//     hit the same 4-byte-interleaved bank at different word addresses
//     serialize (same-word access broadcasts);
//   * cycle cost via the GpuSpec weights.
// A group's kind and access size are those of its last (highest) lane.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "simt/event.hpp"
#include "simt/gpu_spec.hpp"
#include "simt/metrics.hpp"

namespace tcgpu::simt {

class WarpAggregator {
 public:
  /// Lanes per warp; validate_config rejects any other GpuSpec::warp_size.
  static constexpr std::uint32_t kLanes = 32;

  explicit WarpAggregator(const GpuSpec& spec);

  /// Files one access of `lane` (< kLanes) under its (call site, lane)
  /// bucket. `site` is a dense id from site_id(). Precondition: within a
  /// flush unit, lanes record in turn — all of lane 0's events, then lane
  /// 1's, ... (see the file comment); a lane returning to a site after a
  /// higher lane used it throws std::logic_error.
  ///
  /// Inline fast path: the site already has a slot this unit and spare
  /// capacity. Everything else (first event at the site this unit, a full
  /// buffer) takes record_slow().
  void record(std::uint32_t lane, std::uint64_t addr, std::uint32_t site,
              AccessKind kind, std::uint8_t size) {
    if (site < site_map_.size()) {
      const std::uint64_t slot = site_map_[site];
      if (static_cast<std::uint32_t>(slot >> 32) == unit_gen_) {
        SiteEvents& s = sites_[static_cast<std::uint32_t>(slot)];
        if (s.len != s.cap) [[likely]] {
          append(s, lane, Event{addr, kind, size});
          return;
        }
      }
    }
    record_slow(lane, Event{addr, kind, size}, site);
  }

  /// Charges `n` pure-ALU steps to `lane`.
  void compute(std::uint32_t lane, std::uint64_t n) { compute_[lane] += n; }

  /// Clears the SM sector cache. The launcher calls this when the simulated
  /// block it is executing moves to a fresh SM context, keeping cache state
  /// deterministic regardless of host-thread scheduling. O(1): entries are
  /// generation-stamped, so a reset is one counter bump — a slot is live
  /// only while its stamp matches the current generation.
  void reset_cache() {
    if (++cache_gen_ == 0) {  // stamp wrap: invalidate the slow way, once
      cache_.assign(cache_.size(), CacheEntry{});
      cache_gen_ = 1;
    }
  }

  /// Aggregates the recorded unit into `m`, returns its modeled cycle cost,
  /// and empties the buckets for reuse. A unit with no events and no compute
  /// work costs nothing and adds no steps.
  double flush(KernelMetrics& m);

 private:
  struct CacheEntry {
    std::uint64_t tag = 0;   ///< sector id
    std::uint32_t gen = 0;   ///< live iff == cache_gen_
  };

  /// Stamped open-addressing dedup scratch for one aligned group (<= 64 live
  /// keys in 128 slots). "Clearing" between groups is a generation bump, so a
  /// group costs O(probes), never O(table).
  struct StampSet {
    std::array<std::uint64_t, 128> key{};
    std::array<std::uint32_t, 128> gen{};
    std::uint32_t cur = 0;
  };

  /// One call site's events in the current unit, cut into per-lane slices
  /// that ascend by lane: slice i is buf[slice_begin[i], slice_begin[i+1])
  /// (the last ends at len) and holds one lane's accesses at this site in
  /// program order. Lanes that never reached the site have no slice. A site
  /// in use this unit always has an open slice (record_slow opens the first),
  /// so open_lane is always a real lane. The buffer keeps its capacity
  /// across units and doubles when full, as push_back would.
  struct SiteEvents {
    std::unique_ptr<Event[]> buf;  ///< cap slots, [0, len) live
    std::uint32_t len = 0;
    std::uint32_t cap = 0;
    std::uint32_t open_lane = 0;  ///< lane of the last slice
    std::uint32_t slices = 0;
    std::array<std::uint32_t, kLanes> slice_begin{};
  };

  /// Appends `e` to `lane`'s slice of `s`, opening the slice when the lane
  /// changes. Precondition: len < cap.
  static void append(SiteEvents& s, std::uint32_t lane, const Event& e) {
    if (lane != s.open_lane) {
      if (lane < s.open_lane) [[unlikely]] lane_order_error();
      s.slice_begin[s.slices++] = s.len;
      s.open_lane = lane;
    }
    s.buf[s.len++] = e;
  }

  /// Everything record() does not do inline. A site's first event in this
  /// unit takes the next dense local id, in first-appearance order:
  /// site_map_[site] holds (unit generation << 32 | local id), so a fresh
  /// unit is one generation bump, not a map clear. A full buffer grows.
  void record_slow(std::uint32_t lane, const Event& e, std::uint32_t site);

  /// Doubles `s`'s capacity (1 when empty), keeping its events.
  static void grow(SiteEvents& s);

  /// Throws std::logic_error: a lane recorded at a site after a higher lane.
  [[noreturn, gnu::cold]] static void lane_order_error();

  /// Looks up `n` sector ids in the direct-mapped cache, installing misses.
  /// Returns the number of misses (DRAM transactions).
  std::uint32_t cache_access(const std::uint64_t* sectors, std::uint32_t n);

  /// Distinct 32-byte sectors of one aligned group, in first-appearance
  /// order (the order the stateful sector cache must see them in).
  std::uint32_t distinct_sectors(const std::uint64_t* addrs, std::uint32_t size,
                                 std::uint32_t n,
                                 std::array<std::uint64_t, 64>& out);

  /// Bank-conflict degree of one aligned shared-memory group.
  std::uint32_t conflict_degree(const std::uint64_t* addrs, std::uint32_t n);

  const GpuSpec* spec_;
  std::vector<std::uint64_t> site_map_;
  /// Indexed by local site id; [0, unit_sites_) are this unit's. Capacity
  /// survives units, so the steady state never allocates.
  std::vector<SiteEvents> sites_;
  std::uint32_t unit_sites_ = 0;
  std::uint32_t unit_gen_ = 1;
  std::array<std::uint64_t, kLanes> compute_{};
  std::vector<CacheEntry> cache_;
  std::uint32_t cache_gen_ = 0;
  StampSet sector_set_;  ///< scattered-group sector dedup
  StampSet word_set_;    ///< scattered-group shared-word dedup
};

}  // namespace tcgpu::simt
