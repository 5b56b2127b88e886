// Direct unit tests of the warp aggregator — lane events recorded by hand,
// so every grouping rule is pinned without a kernel in the loop.
#include "simt/warp_trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <stdexcept>
#include <vector>

namespace tcgpu::simt {
namespace {

GpuSpec unit_spec() {
  GpuSpec s = GpuSpec::v100();
  s.issue_cycles = 1.0;
  s.global_cycles_per_transaction = 10.0;
  s.l1_hit_cycles = 1.0;
  s.shared_cycles_per_access = 1.0;
  return s;
}

void push(WarpAggregator& agg, std::uint32_t l, std::uint64_t addr,
          std::uint32_t site, AccessKind kind, std::uint8_t size = 4) {
  agg.record(l, addr, site, kind, size);
}

TEST(WarpAggregator, EmptyFlushCostsNothing) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  EXPECT_DOUBLE_EQ(agg.flush(m), 0.0);
  EXPECT_EQ(m.warp_steps, 0u);
}

TEST(WarpAggregator, SameSiteSameOccurrenceIsOneRequest) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 32; ++l) {
    push(agg, l, l * 4, 7, AccessKind::kGlobalLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 4u);  // 128 contiguous bytes
  EXPECT_EQ(m.warp_steps, 1u);
  EXPECT_EQ(m.active_lane_steps, 32u);
}

TEST(WarpAggregator, DifferentSitesAreSeparateRequests) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 1, AccessKind::kGlobalLoad);
  push(agg, 1, 4, 2, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 2u);
  EXPECT_EQ(m.warp_steps, 2u);
  EXPECT_EQ(m.active_lane_steps, 2u);
}

TEST(WarpAggregator, OccurrencesAlignInProgramOrder) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  // Two lanes, each issuing two loads at the same site: the first loads of
  // both lanes group, then the second loads.
  push(agg, 0, 0, 3, AccessKind::kGlobalLoad);
  push(agg, 0, 1024, 3, AccessKind::kGlobalLoad);
  push(agg, 1, 4, 3, AccessKind::kGlobalLoad);
  push(agg, 1, 1028, 3, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 2u);
  // Each aligned pair is contiguous -> one sector per request.
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, DivergentLaneCountsGiveMaxSteps) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (int k = 0; k < 5; ++k) {
    push(agg, 0, k * 4, 9, AccessKind::kGlobalLoad);
  }
  push(agg, 1, 0, 9, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.warp_steps, 5u);         // max lane occurrence count
  EXPECT_EQ(m.active_lane_steps, 6u);  // 5 + 1
}

TEST(WarpAggregator, ComputeStepsUseMaxAcrossLanes) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  agg.compute(0, 10);
  agg.compute(5, 4);
  KernelMetrics m;
  const double cycles = agg.flush(m);
  EXPECT_EQ(m.warp_steps, 10u);
  EXPECT_EQ(m.active_lane_steps, 14u);
  EXPECT_DOUBLE_EQ(cycles, 10.0);  // issue-only
}

TEST(WarpAggregator, CacheHitsAreCheaperThanMisses) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  push(agg, 0, 0, 11, AccessKind::kGlobalLoad);
  const double miss_cycles = agg.flush(m);
  push(agg, 0, 0, 11, AccessKind::kGlobalLoad);
  const double hit_cycles = agg.flush(m);
  EXPECT_GT(miss_cycles, hit_cycles);
  EXPECT_EQ(m.global_dram_transactions, 1u);
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, ResetCacheForcesMissAgain) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  push(agg, 0, 0, 13, AccessKind::kGlobalLoad);
  agg.flush(m);
  agg.reset_cache();
  push(agg, 0, 0, 13, AccessKind::kGlobalLoad);
  agg.flush(m);
  EXPECT_EQ(m.global_dram_transactions, 2u);
}

TEST(WarpAggregator, GenerationStampedResetIsSoundAcrossManyResets) {
  // The O(1) reset must behave exactly like a full invalidation every time:
  // the same sector misses once per generation, and entries installed in an
  // old generation are never read back as live.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  KernelMetrics m;
  for (int block = 0; block < 5; ++block) {
    agg.reset_cache();
    push(agg, 0, 0, 13, AccessKind::kGlobalLoad);
    agg.flush(m);
    push(agg, 0, 0, 13, AccessKind::kGlobalLoad);  // same generation: a hit
    agg.flush(m);
  }
  EXPECT_EQ(m.global_dram_transactions, 5u);
  EXPECT_EQ(m.global_load_transactions, 10u);
}

TEST(WarpAggregator, SharedConflictDegreeCharged) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  // Four lanes hit bank 0 at distinct words: offsets 0, 128, 256, 384.
  for (std::uint32_t l = 0; l < 4; ++l) {
    push(agg, l, l * 128, 17, AccessKind::kSharedLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.shared_load_requests, 1u);
  EXPECT_EQ(m.shared_conflict_cycles, 3u);  // degree 4 => 3 replays
}

TEST(WarpAggregator, BroadcastSharedAccessIsConflictFree) {
  // All 32 lanes reading the same word broadcasts: degree 1, no replays.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 32; ++l) {
    push(agg, l, 64, 18, AccessKind::kSharedLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.shared_load_requests, 1u);
  EXPECT_EQ(m.shared_conflict_cycles, 0u);
}

TEST(WarpAggregator, MixedBroadcastAndConflictCountsDistinctWords) {
  // 8 lanes on word 0, 8 lanes on word 32 (same bank, different word),
  // 16 lanes on word 1 (another bank): bank 0 serves two distinct words.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 8; ++l) push(agg, l, 0, 19, AccessKind::kSharedLoad);
  for (std::uint32_t l = 8; l < 16; ++l)
    push(agg, l, 32 * 4, 19, AccessKind::kSharedLoad);
  for (std::uint32_t l = 16; l < 32; ++l)
    push(agg, l, 4, 19, AccessKind::kSharedLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.shared_load_requests, 1u);
  EXPECT_EQ(m.shared_conflict_cycles, 1u);  // degree 2 on bank 0
}

TEST(WarpAggregator, StraddlingAccessTouchesBothSectors) {
  // An 8-byte load at byte 28 crosses the 32-byte sector boundary: nvprof
  // counts one transaction per touched sector.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 28, 20, AccessKind::kGlobalLoad, 8);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, StraddlingGroupDedupsSharedSectors) {
  // Lanes 0..15 issue 8-byte loads at 16-byte stride: bytes [16k, 16k+8).
  // 256 bytes touched => 8 distinct sectors, each shared by two lanes.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 16; ++l) {
    push(agg, l, l * 16, 21, AccessKind::kGlobalLoad, 8);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 8u);
}

TEST(WarpAggregator, ScatteredSectorsStillDedupExactly) {
  // Non-monotone addresses far apart (and duplicated): the scattered-group
  // dedup must still count each distinct sector once.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  const std::uint64_t far = 1ull << 40;  // ~2^35 sectors away
  push(agg, 0, 0, 22, AccessKind::kGlobalLoad);
  push(agg, 1, far, 22, AccessKind::kGlobalLoad);
  push(agg, 2, 0, 22, AccessKind::kGlobalLoad);
  push(agg, 3, far + 4, 22, AccessKind::kGlobalLoad);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 1u);
  EXPECT_EQ(m.global_load_transactions, 2u);
}

TEST(WarpAggregator, ConvergedInterleavedSitesGroupBySite) {
  // Every lane issues [site A, site B, site A]. Grouping is per (site,
  // occurrence), not per position: 2 requests at A, 1 at B, and the A groups
  // stay coalesced.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  for (std::uint32_t l = 0; l < 32; ++l) {
    push(agg, l, l * 4, 31, AccessKind::kGlobalLoad);
    push(agg, l, 4096 + l * 4, 33, AccessKind::kGlobalLoad);
    push(agg, l, 8192 + l * 4, 31, AccessKind::kGlobalLoad);
  }
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 3u);
  EXPECT_EQ(m.global_load_transactions, 12u);  // 3 groups x 4 sectors
  EXPECT_EQ(m.warp_steps, 3u);
  EXPECT_EQ(m.active_lane_steps, 96u);
}

TEST(WarpAggregator, ConvergedAndDivergentOrderingsAgree) {
  // The same logical warp once fully converged and once with one lane's
  // trailing event withheld: the withheld lane only drops out of its group,
  // so request and step totals match apart from the one missing lane-31
  // contribution.
  const GpuSpec spec = unit_spec();
  auto run = [&](bool withhold) {
    WarpAggregator agg(spec);
    KernelMetrics m;
    for (std::uint32_t l = 0; l < 32; ++l) {
      push(agg, l, l * 4, 41, AccessKind::kGlobalLoad);
      if (withhold && l == 31) continue;
      push(agg, l, 4096 + l * 4, 43, AccessKind::kGlobalLoad);
    }
    agg.flush(m);
    return m;
  };
  const KernelMetrics fast = run(false);
  const KernelMetrics sorted = run(true);
  EXPECT_EQ(fast.global_load_requests, 2u);
  EXPECT_EQ(sorted.global_load_requests, 2u);
  EXPECT_EQ(fast.warp_steps, sorted.warp_steps);
  EXPECT_EQ(fast.active_lane_steps, sorted.active_lane_steps + 1);
}

TEST(WarpAggregator, GroupTakesKindAndSizeFromItsLastLane) {
  // One site, two lanes, different kinds and widths: the group is one
  // request of lane 1's kind, and lane 1's 8-byte width makes its access at
  // byte 28 straddle into sector 1.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 47, AccessKind::kGlobalLoad, 4);
  push(agg, 1, 28, 47, AccessKind::kGlobalStore, 8);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_load_requests, 0u);
  EXPECT_EQ(m.global_store_requests, 1u);
  EXPECT_EQ(m.global_store_transactions, 2u);
}

TEST(WarpAggregator, LaneReturningAfterAHigherLaneThrows) {
  // Buckets are lane slices of one array per site, so a lane may not record
  // at a site again once a higher lane has.
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 45, AccessKind::kGlobalLoad);
  push(agg, 1, 4, 45, AccessKind::kGlobalLoad);
  EXPECT_THROW(push(agg, 0, 8, 45, AccessKind::kGlobalLoad), std::logic_error);

  // Warmed: one flushed unit leaves the site spare capacity, so in the next
  // unit only the first record takes the slow path and the bad one is
  // caught on the inline path.
  WarpAggregator warm(spec);
  KernelMetrics m;
  for (std::uint32_t l = 0; l < 32; ++l) push(warm, l, l * 4, 45, AccessKind::kGlobalLoad);
  warm.flush(m);
  push(warm, 0, 0, 45, AccessKind::kGlobalLoad);
  push(warm, 1, 4, 45, AccessKind::kGlobalLoad);
  EXPECT_THROW(push(warm, 0, 8, 45, AccessKind::kGlobalLoad), std::logic_error);
}

TEST(WarpAggregator, AtomicsCountedSeparately) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 19, AccessKind::kGlobalAtomic, 8);
  push(agg, 0, 64, 21, AccessKind::kSharedAtomic);
  KernelMetrics m;
  agg.flush(m);
  EXPECT_EQ(m.global_atomic_requests, 1u);
  EXPECT_EQ(m.shared_atomic_requests, 1u);
  EXPECT_EQ(m.global_load_requests, 0u);
}

TEST(WarpAggregator, LanesAreClearedAfterFlush) {
  const GpuSpec spec = unit_spec();
  WarpAggregator agg(spec);
  push(agg, 0, 0, 23, AccessKind::kGlobalLoad);
  agg.compute(0, 3);
  KernelMetrics m;
  agg.flush(m);
  const std::uint64_t steps_before = m.warp_steps;
  agg.flush(m);  // nothing recorded since
  EXPECT_EQ(m.warp_steps, steps_before);
}

// --- randomized differential check against a reference alignment ----------

struct RefEvent {
  std::uint64_t addr;
  std::uint32_t site;
  AccessKind kind;
  std::uint8_t size;
};

/// One flush unit: each lane's events in program order, plus compute steps.
struct RefUnit {
  std::array<std::vector<RefEvent>, 32> lanes;
  std::array<std::uint64_t, 32> compute{};
};

/// The documented alignment rule, written for clarity instead of speed:
/// sites in first-appearance order over lanes 0..31, occurrence k of site s
/// groups the k-th event at s of every lane that has one (lanes ascending),
/// and a group takes its kind and size from its last lane. Sector dedup
/// keeps first appearance; the sector cache is direct-mapped by sector id.
class ReferenceAggregator {
 public:
  explicit ReferenceAggregator(const GpuSpec& spec) : spec_(spec) {}

  void reset_cache() { cache_.clear(); }

  double flush(const RefUnit& u, KernelMetrics& m) {
    std::vector<std::uint32_t> order;
    for (const auto& lane : u.lanes) {
      for (const RefEvent& e : lane) {
        if (std::find(order.begin(), order.end(), e.site) == order.end()) {
          order.push_back(e.site);
        }
      }
    }
    std::uint64_t max_compute = 0;
    std::uint64_t sum_compute = 0;
    for (const std::uint64_t c : u.compute) {
      max_compute = std::max(max_compute, c);
      sum_compute += c;
    }
    if (order.empty() && sum_compute == 0) return 0.0;

    std::uint64_t steps = max_compute;
    std::uint64_t active = sum_compute;
    double cycles = static_cast<double>(max_compute) * spec_.issue_cycles;
    for (const std::uint32_t site : order) {
      std::map<std::uint32_t, std::vector<RefEvent>> occ;  // lane -> events
      std::size_t depth = 0;
      for (std::uint32_t l = 0; l < 32; ++l) {
        for (const RefEvent& e : u.lanes[l]) {
          if (e.site == site) occ[l].push_back(e);
        }
        if (occ.count(l) != 0) depth = std::max(depth, occ[l].size());
      }
      for (std::size_t k = 0; k < depth; ++k) {
        std::vector<std::uint64_t> addrs;
        RefEvent last{};
        for (const auto& [lane, events] : occ) {
          if (k < events.size()) {
            addrs.push_back(events[k].addr);
            last = events[k];
          }
        }
        const auto n = static_cast<std::uint32_t>(addrs.size());
        steps += 1;
        active += n;
        cycles += spec_.issue_cycles;
        const bool atomic = last.kind == AccessKind::kGlobalAtomic ||
                            last.kind == AccessKind::kSharedAtomic;
        if (atomic) cycles += n * spec_.atomic_extra_cycles;
        if (last.kind <= AccessKind::kGlobalAtomic) {
          std::vector<std::uint64_t> sectors;
          for (const std::uint64_t a : addrs) {
            for (std::uint64_t s = a / spec_.sector_bytes;
                 s <= (a + last.size - 1) / spec_.sector_bytes; ++s) {
              if (std::find(sectors.begin(), sectors.end(), s) == sectors.end()) {
                sectors.push_back(s);
              }
            }
          }
          std::uint32_t misses = 0;
          for (const std::uint64_t s : sectors) {
            const std::uint32_t slot =
                static_cast<std::uint32_t>(s) & (spec_.l1_cache_sectors - 1);
            const auto it = cache_.find(slot);
            if (it == cache_.end() || it->second != s) {
              cache_[slot] = s;
              ++misses;
            }
          }
          const auto tx = static_cast<std::uint32_t>(sectors.size());
          m.global_dram_transactions += misses;
          cycles += misses * spec_.global_cycles_per_transaction +
                    (tx - misses) * spec_.l1_hit_cycles;
          if (last.kind == AccessKind::kGlobalLoad) {
            m.global_load_requests += 1;
            m.global_load_transactions += tx;
          } else if (last.kind == AccessKind::kGlobalStore) {
            m.global_store_requests += 1;
            m.global_store_transactions += tx;
          } else {
            m.global_atomic_requests += 1;
            m.global_atomic_transactions += tx;
          }
        } else {
          std::vector<std::uint64_t> words;
          for (const std::uint64_t a : addrs) {
            if (std::find(words.begin(), words.end(), a >> 2) == words.end()) {
              words.push_back(a >> 2);
            }
          }
          std::uint32_t degree = 1;
          for (std::uint32_t bank = 0; bank < spec_.shared_banks; ++bank) {
            const auto in_bank = static_cast<std::uint32_t>(
                std::count_if(words.begin(), words.end(), [&](std::uint64_t w) {
                  return w % spec_.shared_banks == bank;
                }));
            degree = std::max(degree, in_bank);
          }
          m.shared_conflict_cycles += degree - 1;
          cycles += degree * spec_.shared_cycles_per_access;
          if (last.kind == AccessKind::kSharedLoad) m.shared_load_requests += 1;
          if (last.kind == AccessKind::kSharedStore) m.shared_store_requests += 1;
          if (last.kind == AccessKind::kSharedAtomic) m.shared_atomic_requests += 1;
        }
      }
    }
    m.warp_steps += steps;
    m.active_lane_steps += active;
    return cycles;
  }

 private:
  const GpuSpec& spec_;
  std::map<std::uint32_t, std::uint64_t> cache_;  // slot -> resident sector
};

/// Drives `trials` fresh aggregators through 12 random flush units each and
/// checks every unit's counters and cycles against the reference alignment.
/// Units mix converged and divergent lanes; per-site address patterns are
/// coalesced, strided, scattered, broadcast, and non-decreasing shared words
/// spanning fewer or at least as many words as the spec has banks. From the
/// third unit on, lanes may run 200+ events at one site, past the capacity
/// earlier units warmed, so a buffer grows while a lane's slice is open. Some
/// divergent units first use a site mid-unit, on a higher lane, with an id
/// above every id recorded before.
void check_random_units(const GpuSpec& spec, std::uint64_t seed, int trials) {
  std::mt19937_64 rng(seed);
  auto uniform = [&](std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(rng);
  };
  // Each site has one fixed id, kind and width: a pool of 8 reused by every
  // unit, plus the fresh sites some units add.
  struct SiteSpec {
    std::uint32_t id;
    AccessKind kind;
    std::uint8_t size;
  };
  auto random_site = [&](std::uint32_t id) {
    return SiteSpec{id, static_cast<AccessKind>(uniform(0, 5)),
                    static_cast<std::uint8_t>(uniform(0, 1) != 0 ? 8 : 4)};
  };
  std::vector<SiteSpec> pool;
  for (std::uint32_t s = 0; s < 8; ++s) pool.push_back(random_site(100 + s));
  const std::uint64_t banks = spec.shared_banks;
  std::uint32_t next_fresh = 1000;

  for (int trial = 0; trial < trials; ++trial) {
    WarpAggregator agg(spec);
    ReferenceAggregator ref(spec);
    KernelMetrics got;
    KernelMetrics want;
    for (int unit = 0; unit < 12; ++unit) {
      if (uniform(0, 7) == 0) {
        agg.reset_cache();
        ref.reset_cache();
      }
      RefUnit u;
      const bool converged = uniform(0, 3) == 0;
      std::vector<SiteSpec> sites = pool;
      const std::uint32_t fresh = !converged && uniform(0, 2) == 0
                                      ? static_cast<std::uint32_t>(uniform(1, 2))
                                      : 0;
      for (std::uint32_t f = 0; f < fresh; ++f) {
        next_fresh += static_cast<std::uint32_t>(uniform(1, 40));
        sites.push_back(random_site(next_fresh));
      }
      // Word spans of the two non-decreasing patterns, each drawn half the
      // time at its edge: banks - 1 still has one word per bank, banks puts
      // the first and last word in one bank.
      const std::uint64_t narrow = uniform(0, 1) != 0 ? banks - 1 : uniform(0, banks - 1);
      const std::uint64_t wide = uniform(0, 1) != 0 ? banks : uniform(banks, 3 * banks);
      // Per-site address pattern for this unit; global addresses span 4 MiB
      // so the 4096-sector cache both hits and evicts.
      const std::uint64_t base = uniform(0, 1u << 22) & ~std::uint64_t{3};
      auto address = [&](std::uint32_t pattern, std::uint32_t lane,
                         std::uint32_t k, bool shared) -> std::uint64_t {
        std::uint64_t a = 0;
        switch (pattern) {
          case 0: a = base + (k * 32 + lane) * 4; break;         // coalesced
          case 1: a = base + (k * 32 + lane) * 132; break;       // strided
          case 2: a = uniform(0, 1u << 22) & ~std::uint64_t{3}; break;  // scattered
          case 3: a = base + k * 4; break;                       // broadcast
          case 4:  // non-decreasing words, spanning `narrow` over lanes 0..31
            a = base + (k * 4 * banks + lane * narrow / 31) * 4 + uniform(0, 3);
            break;
          default:  // non-decreasing words, spanning `wide`
            a = base + (k * 4 * banks + lane * wide / 31) * 4 + uniform(0, 3);
            break;
        }
        return shared ? a % (48 * 1024) : a;
      };
      std::vector<std::uint32_t> pattern(sites.size());
      for (auto& p : pattern) p = static_cast<std::uint32_t>(uniform(0, 5));

      // A converged unit repeats one site sequence on every lane; otherwise
      // each lane draws its own sequence of 0..20 events. Sequences index
      // `sites`; only the pool is drawn here.
      auto draw = [&](std::size_t n) {
        std::vector<std::uint32_t> seq(n);
        for (auto& s : seq) s = static_cast<std::uint32_t>(uniform(0, pool.size() - 1));
        return seq;
      };
      std::vector<std::uint32_t> common = draw(uniform(1, 20));
      const bool long_runs = unit >= 2 && uniform(0, 2) == 0;
      const auto long_site = static_cast<std::uint32_t>(uniform(0, pool.size() - 1));
      const auto long_len = static_cast<std::size_t>(uniform(200, 260));
      const auto long_at = static_cast<std::ptrdiff_t>(uniform(0, common.size()));
      const auto fresh_lane = static_cast<std::uint32_t>(uniform(1, 31));
      for (std::uint32_t l = 0; l < 32; ++l) {
        std::vector<std::uint32_t> seq = converged ? common : draw(uniform(0, 20));
        if (converged && long_runs) {
          seq.insert(seq.begin() + long_at, long_len, long_site);
        } else if (long_runs && uniform(0, 1) == 0) {
          const auto at = static_cast<std::ptrdiff_t>(uniform(0, seq.size()));
          seq.insert(seq.begin() + at, long_len + l, long_site);
        }
        for (std::uint32_t f = 0; f < fresh && l >= fresh_lane; ++f) {
          for (std::uint64_t c = uniform(1, 3); c != 0; --c) {
            const auto at = static_cast<std::ptrdiff_t>(uniform(0, seq.size()));
            seq.insert(seq.begin() + at, static_cast<std::uint32_t>(pool.size() + f));
          }
        }
        std::vector<std::uint32_t> seen(sites.size(), 0);
        for (const std::uint32_t s : seq) {
          const bool shared = sites[s].kind >= AccessKind::kSharedLoad;
          const std::uint64_t a = address(pattern[s], l, seen[s]++, shared);
          u.lanes[l].push_back({a, sites[s].id, sites[s].kind, sites[s].size});
        }
        if (uniform(0, 3) == 0) u.compute[l] = uniform(0, 6);
      }

      for (std::uint32_t l = 0; l < 32; ++l) {  // lane-major, as the launcher
        for (const RefEvent& e : u.lanes[l]) agg.record(l, e.addr, e.site, e.kind, e.size);
        if (u.compute[l] != 0) agg.compute(l, u.compute[l]);
      }
      const double got_cycles = agg.flush(got);
      const double want_cycles = ref.flush(u, want);
      ASSERT_EQ(got_cycles, want_cycles) << "trial " << trial << " unit " << unit;
      ASSERT_EQ(got, want) << "trial " << trial << " unit " << unit;
    }
    EXPECT_GT(want.warp_steps, 0u);
    EXPECT_GT(want.shared_load_requests + want.shared_store_requests +
                  want.shared_atomic_requests,
              0u);
  }
}

TEST(WarpAggregator, RandomUnitsMatchReferenceAlignment) {
  // The V100 layout: 32 banks, 32-byte sectors (both powers of two).
  check_random_units(unit_spec(), 20240518, 40);
  // Neither a power of two: 24 banks, 48-byte sectors, so the sector and
  // bank arithmetic take their division paths.
  GpuSpec odd = unit_spec();
  odd.shared_banks = 24;
  odd.sector_bytes = 48;
  check_random_units(odd, 20260611, 40);
}

}  // namespace
}  // namespace tcgpu::simt
