#include "simt/warp_trace.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <limits>
#include <memory>
#include <stdexcept>

namespace tcgpu::simt {
namespace {

/// Starts a fresh generation in a stamped dedup set: one counter bump, with
/// a full invalidation only on the (rare) 32-bit wrap.
template <class Set>
void stamp_begin(Set& set) {
  if (++set.cur == 0) {
    set.gen.fill(0);
    set.cur = 1;
  }
}

/// Returns true iff `k` was already recorded this generation; records it
/// otherwise. At most 64 live keys in 128 slots, so probes stay short.
template <class Set>
bool seen_before(Set& set, std::uint64_t k) {
  auto slot = static_cast<std::uint32_t>((k * 0x9E3779B97F4A7C15ull) >> 57);
  for (;; slot = (slot + 1) & 127u) {
    if (set.gen[slot] != set.cur) {
      set.gen[slot] = set.cur;
      set.key[slot] = k;
      return false;
    }
    if (set.key[slot] == k) return true;
  }
}

/// Collects the distinct sectors of one aligned group into `out`, in
/// first-appearance order. Order matters: the caller feeds the sectors
/// through a stateful direct-mapped cache, so a different install order
/// would change which colliding sector survives and thereby the DRAM
/// transaction counts of later groups. Single pass; membership is one
/// stamped-set probe. Same drop-when-full cap as the monotone path: once
/// `out` is full nothing is ever emitted again, so the cap check can
/// short-circuit the probe without changing the result.
template <class SectorOf, class Set>
std::uint32_t distinct_sectors_scattered(const std::uint64_t* addrs,
                                         std::uint32_t size, std::uint32_t n,
                                         std::array<std::uint64_t, 64>& out,
                                         SectorOf sector_of, Set& set) {
  stamp_begin(set);
  std::uint32_t count = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    // A single access can straddle sectors; cover its full byte range.
    const std::uint64_t first = sector_of(addrs[i]);
    const std::uint64_t last = sector_of(addrs[i] + size - 1);
    for (std::uint64_t s = first; s <= last; ++s) {
      if (count < out.size() && !seen_before(set, s)) out[count++] = s;
    }
  }
  return count;
}

/// Single-pass variant for groups whose addresses are non-decreasing across
/// lanes (every coalesced access pattern). First-appearance order is then
/// simply ascending sector order, so dedup is a comparison against the last
/// emitted sector: all of [first_i, prev] was already emitted because
/// addr_i >= addr_{i-1} implies first_i >= first_{i-1} and the previous
/// access emitted through prev. Returns false (without touching `count`
/// semantics) when the addresses turn out not to be monotone.
template <class SectorOf>
bool distinct_sectors_monotone(const std::uint64_t* addrs, std::uint32_t size,
                               std::uint32_t n, std::array<std::uint64_t, 64>& out,
                               SectorOf sector_of, std::uint32_t& count_out) {
  std::uint32_t count = 0;
  std::uint64_t prev_addr = 0;
  std::uint64_t prev = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t a = addrs[i];
    if (i != 0 && a < prev_addr) return false;
    prev_addr = a;
    const std::uint64_t first = sector_of(a);
    const std::uint64_t last = sector_of(a + size - 1);
    std::uint64_t s = i == 0 ? first : std::max(first, prev + 1);
    for (; s <= last; ++s) {
      // Same drop-when-full cap as the generic paths: overflow sectors are
      // discarded, never retried.
      if (count < out.size()) out[count++] = s;
    }
    prev = last;  // same size per group, so last_i >= last_{i-1}
  }
  count_out = count;
  return true;
}

}  // namespace

std::uint32_t WarpAggregator::distinct_sectors(const std::uint64_t* addrs,
                                               std::uint32_t size, std::uint32_t n,
                                               std::array<std::uint64_t, 64>& out) {
  // Every GpuSpec preset uses a power-of-two sector; a shift keeps the
  // per-lane divide off the critical path (this runs once per lane per
  // group, the hottest arithmetic in the simulator).
  const std::uint32_t sector_bytes = spec_->sector_bytes;
  if (std::has_single_bit(sector_bytes)) {
    const std::uint32_t shift = std::countr_zero(sector_bytes);
    const auto sector_of = [shift](std::uint64_t a) { return a >> shift; };
    std::uint32_t count = 0;
    if (distinct_sectors_monotone(addrs, size, n, out, sector_of, count)) {
      return count;
    }
    return distinct_sectors_scattered(addrs, size, n, out, sector_of, sector_set_);
  }
  const auto sector_of = [sector_bytes](std::uint64_t a) { return a / sector_bytes; };
  std::uint32_t count = 0;
  if (distinct_sectors_monotone(addrs, size, n, out, sector_of, count)) {
    return count;
  }
  return distinct_sectors_scattered(addrs, size, n, out, sector_of, sector_set_);
}

/// Bank-conflict degree of one aligned shared-memory group: the maximum,
/// over banks, of the number of *distinct words* accessed in that bank.
/// 1 means conflict-free (or broadcast); d means the access replays d times.
/// The degree depends only on the set of words (order-independent), so the
/// dedup is a stamped-set probe per lane — no sort, even for the scattered
/// word patterns of the hash-probe kernels.
///
/// Fast path, exact: when the words are non-decreasing across lanes and the
/// last is fewer than `banks` words past the first, every word lies in one
/// window of `banks` consecutive words, whose banks (word mod banks) are all
/// distinct. Each bank then holds at most one distinct word, so the degree
/// is 1 without a probe. Coalesced and broadcast reads of a shared array
/// take this path.
std::uint32_t WarpAggregator::conflict_degree(const std::uint64_t* addrs,
                                              std::uint32_t n) {
  const std::uint32_t banks = spec_->shared_banks;
  const std::uint32_t m = std::min<std::uint32_t>(n, 64);
  {
    const std::uint64_t first = addrs[0] >> 2;
    std::uint64_t prev = first;
    std::uint32_t i = 1;
    for (; i < m; ++i) {
      const std::uint64_t w = addrs[i] >> 2;
      if (w < prev || w - first >= banks) break;
      prev = w;
    }
    if (i == m) return 1;
  }
  std::array<std::uint8_t, 64> per_bank{};  // validate_config keeps banks <= 64
  const bool pow2 = std::has_single_bit(banks);
  const std::uint64_t mask = banks - 1;  // valid only when pow2
  std::uint32_t worst = 1;
  stamp_begin(word_set_);
  std::uint64_t prev = 0;
  bool have_prev = false;
  for (std::uint32_t i = 0; i < m; ++i) {
    const std::uint64_t w = addrs[i] >> 2;
    // Broadcast runs (all lanes reading one word) are common; skip the probe.
    if (have_prev && w == prev) continue;
    prev = w;
    have_prev = true;
    if (seen_before(word_set_, w)) continue;
    const std::uint32_t bank =
        static_cast<std::uint32_t>(pow2 ? (w & mask) : (w % banks));
    per_bank[bank]++;
    worst = std::max<std::uint32_t>(worst, per_bank[bank]);
  }
  return worst;
}

WarpAggregator::WarpAggregator(const GpuSpec& spec)
    : spec_(&spec), cache_(spec.l1_cache_sectors) {
  reset_cache();
}

void WarpAggregator::record_slow(std::uint32_t lane, const Event& e,
                                 std::uint32_t site) {
  if (site >= site_map_.size()) site_map_.resize(static_cast<std::size_t>(site) + 1, 0);
  std::uint64_t& slot = site_map_[site];
  if (static_cast<std::uint32_t>(slot >> 32) != unit_gen_) {
    const std::uint32_t local = unit_sites_++;
    slot = (static_cast<std::uint64_t>(unit_gen_) << 32) | local;
    if (local == sites_.size()) sites_.emplace_back();
    SiteEvents& s = sites_[local];
    s.len = 0;
    s.open_lane = lane;
    s.slices = 1;
    s.slice_begin[0] = 0;
  }
  SiteEvents& s = sites_[static_cast<std::uint32_t>(slot)];
  if (s.len == s.cap) grow(s);
  append(s, lane, e);
}

void WarpAggregator::grow(SiteEvents& s) {
  if (s.cap > std::numeric_limits<std::uint32_t>::max() / 2) {
    throw std::length_error("WarpAggregator: too many events at one call site");
  }
  const std::uint32_t cap = s.cap == 0 ? 1 : 2 * s.cap;
  auto buf = std::make_unique_for_overwrite<Event[]>(cap);
  std::copy_n(s.buf.get(), s.len, buf.get());
  s.buf = std::move(buf);
  s.cap = cap;
}

void WarpAggregator::lane_order_error() {
  throw std::logic_error("WarpAggregator: lanes must record in turn (lane-major)");
}

std::uint32_t WarpAggregator::cache_access(const std::uint64_t* sectors,
                                           std::uint32_t n) {
  std::uint32_t misses = 0;
  const std::uint32_t mask = spec_->l1_cache_sectors - 1;
  const std::uint32_t gen = cache_gen_;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint64_t s = sectors[i];
    CacheEntry& e = cache_[static_cast<std::uint32_t>(s) & mask];
    if (e.gen != gen || e.tag != s) {
      e.tag = s;
      e.gen = gen;
      ++misses;
    }
  }
  return misses;
}

// The flush groups each lane's k-th access at a call site with every other
// lane's k-th access there ("occurrence alignment" — see the header). A
// site's lane slices already hold each lane's accesses there in program
// order, so group k of a site is element k of every slice that is that long.
// Groups are visited sites first (by first appearance), occurrences
// ascending, lanes ascending: the stateful sector cache and the floating-
// point cycle accumulator see one fixed sequence.
double WarpAggregator::flush(KernelMetrics& m) {
  const GpuSpec& spec = *spec_;

  std::uint64_t max_compute = 0;
  std::uint64_t sum_compute = 0;
  for (const std::uint64_t c : compute_) {
    max_compute = std::max(max_compute, c);
    sum_compute += c;
  }
  if (unit_sites_ == 0 && sum_compute == 0) return 0.0;
  compute_.fill(0);

  std::uint64_t steps = max_compute;
  std::uint64_t active = sum_compute;
  double cycles = static_cast<double>(max_compute) * spec.issue_cycles;

  std::array<std::uint64_t, 64> addrs;
  std::array<std::uint64_t, 64> sectors;
  // Charges one aligned group of n accesses (addrs[0..n) filled in lane
  // order).
  auto charge = [&](std::uint32_t n, AccessKind kind, std::uint8_t size) {
    steps += 1;
    active += n;
    cycles += spec.issue_cycles;
    auto global_cost = [&]() {
      const std::uint32_t tx = distinct_sectors(addrs.data(), size, n, sectors);
      const std::uint32_t misses = cache_access(sectors.data(), tx);
      m.global_dram_transactions += misses;
      cycles += misses * spec.global_cycles_per_transaction +
                (tx - misses) * spec.l1_hit_cycles;
      return tx;
    };
    switch (kind) {
      case AccessKind::kGlobalLoad: {
        const std::uint32_t tx = global_cost();
        m.global_load_requests += 1;
        m.global_load_transactions += tx;
        break;
      }
      case AccessKind::kGlobalStore: {
        const std::uint32_t tx = global_cost();
        m.global_store_requests += 1;
        m.global_store_transactions += tx;
        break;
      }
      case AccessKind::kGlobalAtomic: {
        const std::uint32_t tx = global_cost();
        m.global_atomic_requests += 1;
        m.global_atomic_transactions += tx;
        cycles += n * spec.atomic_extra_cycles;
        break;
      }
      case AccessKind::kSharedLoad: {
        const std::uint32_t deg = conflict_degree(addrs.data(), n);
        m.shared_load_requests += 1;
        m.shared_conflict_cycles += deg - 1;
        cycles += deg * spec.shared_cycles_per_access;
        break;
      }
      case AccessKind::kSharedStore: {
        const std::uint32_t deg = conflict_degree(addrs.data(), n);
        m.shared_store_requests += 1;
        m.shared_conflict_cycles += deg - 1;
        cycles += deg * spec.shared_cycles_per_access;
        break;
      }
      case AccessKind::kSharedAtomic: {
        const std::uint32_t deg = conflict_degree(addrs.data(), n);
        m.shared_atomic_requests += 1;
        m.shared_conflict_cycles += deg - 1;
        cycles +=
            deg * spec.shared_cycles_per_access + n * spec.atomic_extra_cycles;
        break;
      }
    }
  };

  for (std::uint32_t local = 0; local < unit_sites_; ++local) {
    const SiteEvents& se = sites_[local];
    // Slices of the lanes still holding a k-th occurrence, ascending by
    // lane. The set only shrinks as k grows, so each group costs
    // O(participants), not O(kLanes) — the skewed trip counts of triangle
    // kernels leave long tails where one or two lanes are still looping.
    std::array<const Event*, kLanes> ev;
    std::array<std::size_t, kLanes> len;
    std::uint32_t na = se.slices;
    for (std::uint32_t i = 0; i < na; ++i) {
      const std::size_t end = i + 1 < na ? se.slice_begin[i + 1] : se.len;
      ev[i] = se.buf.get() + se.slice_begin[i];
      len[i] = end - se.slice_begin[i];
    }
    for (std::size_t k = 0; na != 0;) {
      // Occurrences [k, depth) are held by every active lane.
      std::size_t depth = len[0];
      for (std::uint32_t i = 1; i < na; ++i) depth = std::min(depth, len[i]);
      for (; k < depth; ++k) {
        for (std::uint32_t i = 0; i < na; ++i) addrs[i] = ev[i][k].addr;
        const Event& last = ev[na - 1][k];
        charge(na, last.kind, last.size);
      }
      std::uint32_t keep = 0;
      for (std::uint32_t i = 0; i < na; ++i) {
        if (len[i] > depth) {
          ev[keep] = ev[i];
          len[keep] = len[i];
          ++keep;
        }
      }
      na = keep;
    }
  }

  unit_sites_ = 0;
  if (++unit_gen_ == 0) {  // stamp wrap: invalidate the slow way, once
    std::fill(site_map_.begin(), site_map_.end(), 0);
    unit_gen_ = 1;
  }
  m.warp_steps += steps;
  m.active_lane_steps += active;
  return cycles;
}

}  // namespace tcgpu::simt
