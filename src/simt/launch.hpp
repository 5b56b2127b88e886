// Kernel launcher for the simulated GPU.
//
// Execution model
// ---------------
// A launch runs `grid` blocks of `block` threads (multiple of 32). Work is
// expressed as *items* distributed over thread *groups* of `group_size`
// threads (1/2/4/8/16/32, or the whole block):
//
//   * group_size == block  — block-cooperative kernels (Bisson, Hu, TRUST's
//     block kernel, GroupTC chunks). Item i is processed by block i % grid;
//     a block loops over its items.
//   * group_size <= 32     — warp- or sub-warp-cooperative kernels (TriCore,
//     H-INDEX, Fox's 2^n-thread bins, Green's 32-thread intersections,
//     Polak's 1-thread edges). Groups across the whole grid stride over
//     items; groups sharing a warp advance in lockstep (so lanes of one warp
//     can be working on different items — exactly the situation whose
//     coalescing cost the paper analyzes for Fox).
//
// A kernel is a sequence of one or more *phases*, callables of signature
//     void(ThreadCtx&, State&, std::uint64_t item)
// with an implicit barrier (block-level or warp-level, per the scope above)
// between phases. Every barrier in the eight published algorithms separates
// an index-construction step from a probe step, which this structure
// expresses directly. `State` is per-thread storage living across the
// phases of one item (value-initialized per item).
//
// Metering
// --------
// All global/shared accesses go through ThreadCtx, which records each one
// straight into the warp's WarpAggregator, bucketed by (call site, lane).
// The launcher runs a flush unit's lanes 0..31 one after another — the
// lane-major order the aggregator requires — then flushes: the aggregator
// aligns the buckets into warp instructions and derives the nvprof-style
// metrics plus a modeled cycle cost. Kernel time is
//     max(per-SM issue/memory cycles under round-robin block placement,
//         device-wide bandwidth bound)  /  clock.
#pragma once

#include <atomic>
#include <cstdint>
#include <source_location>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "simt/device.hpp"
#include "simt/event.hpp"
#include "simt/gpu_spec.hpp"
#include "simt/metrics.hpp"
#include "simt/shared_memory.hpp"
#include "simt/site.hpp"
#include "simt/warp_trace.hpp"

namespace tcgpu::simt {

struct LaunchConfig {
  std::uint32_t grid = 0;        ///< number of blocks
  std::uint32_t block = 0;       ///< threads per block, multiple of 32
  std::uint32_t group_size = 0;  ///< threads per item: 1,2,4,8,16,32 or == block
};

namespace detail {
[[noreturn]] void launch_error(const std::string& what);
// Out-of-line so the metered access templates contain no string code: the
// formatting otherwise gets materialized in every kernel lambda, on the
// hot path of a check that never fires.
[[noreturn]] void bounds_error(const char* op, std::size_t i, std::size_t size);
[[noreturn]] void shared_bounds_error(const char* op, std::size_t i,
                                      std::size_t size);
void validate_config(const GpuSpec& spec, const LaunchConfig& cfg);
KernelStats finalize(const GpuSpec& spec, const std::vector<double>& block_cycles,
                     KernelMetrics m, std::uint64_t warps_launched);
}  // namespace detail

/// The per-lane view a kernel body receives. Cheap to construct; all
/// metered memory traffic flows through it.
class ThreadCtx {
 public:
  using SrcLoc = std::source_location;

  ThreadCtx(const GpuSpec& spec, const LaunchConfig& cfg, std::uint32_t block_id,
            std::uint32_t thread_in_block, WarpAggregator& agg, SharedArena& arena)
      : spec_(&spec),
        cfg_(&cfg),
        block_id_(block_id),
        tid_(thread_in_block),
        agg_(&agg),
        arena_(&arena) {}

  // --- identity -----------------------------------------------------------
  std::uint32_t block_id() const { return block_id_; }
  std::uint32_t thread_in_block() const { return tid_; }
  std::uint32_t block_dim() const { return cfg_->block; }
  std::uint32_t grid_dim() const { return cfg_->grid; }
  std::uint32_t lane() const { return tid_ & 31u; }
  std::uint32_t warp_in_block() const { return tid_ >> 5; }
  std::uint32_t group_size() const { return cfg_->group_size; }
  std::uint32_t group_lane() const { return tid_ % cfg_->group_size; }
  std::uint64_t global_thread() const {
    return static_cast<std::uint64_t>(block_id_) * cfg_->block + tid_;
  }
  std::uint64_t total_threads() const {
    return static_cast<std::uint64_t>(cfg_->grid) * cfg_->block;
  }
  const GpuSpec& spec() const { return *spec_; }
  std::uint32_t shared_capacity() const { return arena_->capacity(); }

  // --- global memory ------------------------------------------------------
  template <class T>
  T load(const DeviceBuffer<T>& b, std::size_t i, Site site = Site()) {
    bounds(b, i, "load");
    record(b.addr_of(i), AccessKind::kGlobalLoad, sizeof(T), site);
    return b.raw()[i];
  }

  template <class T>
  void store(DeviceBuffer<T>& b, std::size_t i, T v, Site site = Site()) {
    bounds(b, i, "store");
    record(b.addr_of(i), AccessKind::kGlobalStore, sizeof(T), site);
    b.raw()[i] = v;
  }

  template <class T>
  T atomic_add(DeviceBuffer<T>& b, std::size_t i, T v, Site site = Site()) {
    static_assert(std::is_integral_v<T>);
    bounds(b, i, "atomic_add");
    record(b.addr_of(i), AccessKind::kGlobalAtomic, sizeof(T), site);
    return __atomic_fetch_add(&b.raw()[i], v, __ATOMIC_RELAXED);
  }

  template <class T>
  T atomic_or(DeviceBuffer<T>& b, std::size_t i, T v, Site site = Site()) {
    static_assert(std::is_integral_v<T>);
    bounds(b, i, "atomic_or");
    record(b.addr_of(i), AccessKind::kGlobalAtomic, sizeof(T), site);
    return __atomic_fetch_or(&b.raw()[i], v, __ATOMIC_RELAXED);
  }

  template <class T>
  T atomic_cas(DeviceBuffer<T>& b, std::size_t i, T expected, T desired,
               Site site = Site()) {
    static_assert(std::is_integral_v<T>);
    bounds(b, i, "atomic_cas");
    record(b.addr_of(i), AccessKind::kGlobalAtomic, sizeof(T), site);
    __atomic_compare_exchange_n(&b.raw()[i], &expected, desired, false,
                                __ATOMIC_RELAXED, __ATOMIC_RELAXED);
    return expected;  // prior value on failure, old==expected on success
  }

  // --- shared memory ------------------------------------------------------
  /// Block-level array keyed by call site: every thread of the block asking
  /// at the same program point receives the same storage (a __shared__
  /// array). Contents persist across the items a block processes.
  /// NOTE: phases are distinct program points — a kernel whose build phase
  /// and probe phase touch the same array must use shared_array_tagged.
  template <class T>
  SharedView<T> shared_array(std::size_t n, Site site = Site()) {
    auto [ptr, off] = arena_->get(site.id(), n * sizeof(T), alignof(T));
    return SharedView<T>(reinterpret_cast<T*>(ptr), off, n);
  }

  /// Block-level array keyed by an explicit kernel-chosen tag, so multiple
  /// phases (different program points) can name the same __shared__ array.
  /// Tags live in a separate key space from call sites.
  template <class T>
  SharedView<T> shared_array_tagged(std::uint32_t tag, std::size_t n) {
    auto [ptr, off] = arena_->get(0x80000000u | tag, n * sizeof(T), alignof(T));
    return SharedView<T>(reinterpret_cast<T*>(ptr), off, n);
  }

  template <class T>
  T shared_load(const SharedView<T>& v, std::size_t i, Site site = Site()) {
    sbounds(v, i, "shared_load");
    record(v.offset_of(i), AccessKind::kSharedLoad, sizeof(T), site);
    return v.raw()[i];
  }

  template <class T>
  void shared_store(SharedView<T>& v, std::size_t i, T x, Site site = Site()) {
    sbounds(v, i, "shared_store");
    record(v.offset_of(i), AccessKind::kSharedStore, sizeof(T), site);
    v.raw()[i] = x;
  }

  template <class T>
  T shared_atomic_add(SharedView<T>& v, std::size_t i, T x, Site site = Site()) {
    static_assert(std::is_integral_v<T>);
    sbounds(v, i, "shared_atomic_add");
    record(v.offset_of(i), AccessKind::kSharedAtomic, sizeof(T), site);
    // Blocks execute on one host thread; plain RMW is exact here.
    T old = v.raw()[i];
    v.raw()[i] = old + x;
    return old;
  }

  template <class T>
  T shared_atomic_or(SharedView<T>& v, std::size_t i, T x, Site site = Site()) {
    static_assert(std::is_integral_v<T>);
    sbounds(v, i, "shared_atomic_or");
    record(v.offset_of(i), AccessKind::kSharedAtomic, sizeof(T), site);
    T old = v.raw()[i];
    v.raw()[i] = old | x;
    return old;
  }

  // --- compute ------------------------------------------------------------
  /// Charges n pure-ALU warp-lane steps (hash mixing, reductions, ...).
  void compute(std::uint64_t n = 1) { agg_->compute(lane(), n); }

 private:
  void record(std::uint64_t addr, AccessKind kind, std::uint8_t size,
              Site site) {
    agg_->record(lane(), addr, site.id(), kind, size);
  }

  template <class T>
  void bounds(const DeviceBuffer<T>& b, std::size_t i, const char* op) const {
    if (i >= b.size()) [[unlikely]] {
      detail::bounds_error(op, i, b.size());
    }
  }
  template <class T>
  void sbounds(const SharedView<T>& v, std::size_t i, const char* op) const {
    if (i >= v.size()) [[unlikely]] {
      detail::shared_bounds_error(op, i, v.size());
    }
  }

  const GpuSpec* spec_;
  const LaunchConfig* cfg_;
  std::uint32_t block_id_;
  std::uint32_t tid_;
  WarpAggregator* agg_;
  SharedArena* arena_;
};

/// Launches a phased item kernel. See the file comment for the model.
/// Throws std::runtime_error on kernel faults (out-of-bounds access,
/// shared-memory exhaustion) and std::invalid_argument on bad configs.
template <class State, class... Phases>
KernelStats launch_items(const GpuSpec& spec, LaunchConfig cfg, std::uint64_t num_items,
                         Phases&&... phases) {
  static_assert(sizeof...(Phases) >= 1, "a kernel needs at least one phase");
  detail::validate_config(spec, cfg);

  const std::uint32_t warps_per_block = cfg.block / 32;
  const std::uint64_t warps_launched =
      static_cast<std::uint64_t>(cfg.grid) * warps_per_block;
  std::vector<double> block_cycles(cfg.grid, 0.0);
  KernelMetrics total;
  if (num_items == 0) {
    return detail::finalize(spec, block_cycles, total, warps_launched);
  }

  std::string error;
  std::atomic<bool> failed{false};

#ifdef _OPENMP
#pragma omp parallel
#endif
  {
    KernelMetrics local;
    WarpAggregator agg(spec);
    SharedArena arena(spec.shared_mem_per_block);
    std::vector<State> st(cfg.block);

#ifdef _OPENMP
#pragma omp for schedule(dynamic, 4)
#endif
    for (std::int64_t bi = 0; bi < static_cast<std::int64_t>(cfg.grid); ++bi) {
      const auto b = static_cast<std::uint32_t>(bi);
      if (failed) continue;
      arena.reset();
      agg.reset_cache();  // fresh SM cache context per block, deterministic
      double cyc = 0.0;
      try {
        if (cfg.group_size == cfg.block) {
          // Block-cooperative: block b handles items b, b+grid, ...
          for (std::uint64_t item = b; item < num_items; item += cfg.grid) {
            for (auto& s : st) s = State{};
            auto run_phase = [&](auto&& phase) {
              for (std::uint32_t w = 0; w < warps_per_block; ++w) {
                for (std::uint32_t l = 0; l < 32; ++l) {
                  const std::uint32_t tid = w * 32 + l;
                  ThreadCtx ctx(spec, cfg, b, tid, agg, arena);
                  phase(ctx, st[tid], item);
                }
                cyc += agg.flush(local);
              }
            };
            (run_phase(phases), ...);
          }
        } else {
          // Warp/sub-warp groups stride over items grid-wide.
          const std::uint32_t gpw = 32 / cfg.group_size;  // groups per warp
          const std::uint64_t total_groups =
              static_cast<std::uint64_t>(cfg.grid) * warps_per_block * gpw;
          for (std::uint32_t w = 0; w < warps_per_block; ++w) {
            const std::uint64_t first_group =
                (static_cast<std::uint64_t>(b) * warps_per_block + w) * gpw;
            for (std::uint64_t round = 0;; ++round) {
              const std::uint64_t base_item = round * total_groups + first_group;
              if (base_item >= num_items) break;
              // Lane l works on item base_item + l/group_size; lanes past the
              // last item idle this round. Only the active lanes' state is
              // reset (and only they run) — tail lanes never touch st.
              const std::uint64_t items_left = num_items - base_item;
              const std::uint32_t active_lanes =
                  items_left * cfg.group_size >= 32
                      ? 32u
                      : static_cast<std::uint32_t>(items_left * cfg.group_size);
              for (std::uint32_t l = 0; l < active_lanes; ++l) {
                st[w * 32 + l] = State{};
              }
              auto run_phase = [&](auto&& phase) {
                for (std::uint32_t l = 0; l < active_lanes; ++l) {
                  const std::uint64_t item = base_item + l / cfg.group_size;
                  const std::uint32_t tid = w * 32 + l;
                  ThreadCtx ctx(spec, cfg, b, tid, agg, arena);
                  phase(ctx, st[tid], item);
                }
                cyc += agg.flush(local);
              };
              (run_phase(phases), ...);
            }
          }
        }
      } catch (const std::exception& e) {
#ifdef _OPENMP
#pragma omp critical(tcgpu_launch_error)
#endif
        {
          if (!failed.exchange(true)) error = e.what();
        }
      }
      block_cycles[b] = cyc;
    }

#ifdef _OPENMP
#pragma omp critical(tcgpu_launch_merge)
#endif
    { total += local; }
  }

  if (failed) throw std::runtime_error("kernel fault: " + error);
  return detail::finalize(spec, block_cycles, total, warps_launched);
}

struct NoState {};

/// Convenience wrapper: one phase, one thread per item.
/// Body signature: void(ThreadCtx&, std::uint64_t item).
template <class Body>
KernelStats launch_threads(const GpuSpec& spec, std::uint32_t grid, std::uint32_t block,
                           std::uint64_t num_items, Body&& body) {
  LaunchConfig cfg{grid, block, 1};
  return launch_items<NoState>(
      spec, cfg, num_items,
      [&body](ThreadCtx& ctx, NoState&, std::uint64_t item) { body(ctx, item); });
}

}  // namespace tcgpu::simt
