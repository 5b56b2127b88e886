// serve::Scheduler — the query service's admission queue: deadline-aware,
// tenant-fair dispatch order with per-tenant backpressure.
//
// Every tenant has its own bounded FIFO, and pop() chooses among the queue
// heads with a two-level policy:
//
//   1. EDF — among queue heads, any item carrying a deadline dispatches in
//      earliest-absolute-deadline order before all non-deadline items; a
//      query that is about to expire does not wait behind bulk work.
//   2. WFQ — among non-deadline heads, start-time fair queueing: each item
//      is stamped a virtual finish tag (tenant's virtual time + 1/weight) at
//      admission, and pop() takes the smallest tag. Over any saturated
//      window tenants receive dispatch slots proportional to their weights,
//      regardless of arrival pattern or burst size.
//
// Backpressure is per tenant (shed or block when that tenant's queue is
// full), so one tenant's backlog can never push another's work out. Ties
// break deterministically (tag, then arrival sequence) — dispatch order is
// a pure function of the admission sequence, independent of thread timing.
// With a single tenant only one queue has a head, so the scheduler is a
// plain bounded FIFO. take_matching() is the batching hook: a worker that
// popped one query drains that tenant's other queued queries on the same
// graph so the whole batch shares one prepare/upload.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace tcgpu::serve {

enum class AdmitResult {
  kAdmitted,
  kShed,    ///< tenant queue full in shedding mode
  kClosed,  ///< scheduler no longer accepting
};

/// Per-tenant scheduling policy. Weights are relative (2.0 gets twice the
/// saturated dispatch share of 1.0).
struct TenantPolicy {
  double weight = 1.0;
  std::size_t queue_limit = 64;  ///< per-tenant bound (0 = unbounded)
  bool block_when_full = true;   ///< false: shed at the bound
};

template <class T>
class Scheduler {
 public:
  /// `fallback` applies to tenants without an explicit policy.
  explicit Scheduler(TenantPolicy fallback = TenantPolicy{})
      : fallback_(fallback) {}

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  /// Registers/overrides one tenant's policy (call before traffic for
  /// deterministic shares; safe anytime).
  void set_policy(const std::string& tenant, TenantPolicy policy) {
    std::lock_guard lk(mu_);
    tenant_of(tenant).policy = policy;
  }

  /// Admits one item for `tenant`. `deadline_tick` orders EDF dispatch:
  /// 0 = no deadline (WFQ only); smaller = more urgent (callers pass an
  /// absolute time in any monotone unit). Blocks, sheds, or rejects per the
  /// tenant's policy and the scheduler's open/closed state. The item is
  /// moved from only when admitted.
  AdmitResult push(const std::string& tenant, std::uint64_t deadline_tick,
                   T&& item) {
    std::unique_lock lk(mu_);
    if (closed_) return AdmitResult::kClosed;
    Tenant& t = tenant_of(tenant);
    if (t.policy.queue_limit != 0 && t.items.size() >= t.policy.queue_limit) {
      if (!t.policy.block_when_full) return AdmitResult::kShed;
      t.not_full.wait(lk, [&] {
        return closed_ || t.items.size() < t.policy.queue_limit;
      });
      if (closed_) return AdmitResult::kClosed;
    }
    Item it;
    it.deadline_tick = deadline_tick;
    // Start-time fair queueing: a tenant idle while others ran must not have
    // banked credit, so its virtual time restarts at the global floor.
    t.vtime = std::max(t.vtime, vfloor_) + 1.0 / std::max(1e-9, t.policy.weight);
    it.finish_tag = t.vtime;
    it.seq = next_seq_++;
    it.value = std::move(item);
    t.items.push_back(std::move(it));
    lk.unlock();
    not_empty_.notify_one();
    return AdmitResult::kAdmitted;
  }

  /// Dispatches the next item: EDF over deadline-carrying heads first, then
  /// smallest WFQ finish tag. Blocks while open and empty; nullopt once
  /// closed and drained (the workers' shutdown signal).
  std::optional<T> pop() {
    std::unique_lock lk(mu_);
    not_empty_.wait(lk, [&] { return closed_ || !empty_locked(); });
    Tenant* best = nullptr;
    bool best_deadline = false;
    std::uint64_t best_tick = std::numeric_limits<std::uint64_t>::max();
    double best_tag = std::numeric_limits<double>::infinity();
    std::uint64_t best_seq = std::numeric_limits<std::uint64_t>::max();
    for (auto& [name, t] : tenants_) {
      if (t.items.empty()) continue;
      const Item& head = t.items.front();
      const bool has_deadline = head.deadline_tick != 0;
      const bool wins =
          best == nullptr ||
          (has_deadline
               ? (!best_deadline || head.deadline_tick < best_tick ||
                  (head.deadline_tick == best_tick && head.seq < best_seq))
               : (!best_deadline &&
                  (head.finish_tag < best_tag ||
                   (head.finish_tag == best_tag && head.seq < best_seq))));
      if (wins) {
        best = &t;
        best_deadline = has_deadline;
        best_tick = head.deadline_tick;
        best_tag = head.finish_tag;
        best_seq = head.seq;
      }
    }
    if (best == nullptr) return std::nullopt;  // closed and drained
    Item item = std::move(best->items.front());
    best->items.pop_front();
    vfloor_ = std::max(vfloor_, item.finish_tag);
    best->not_full.notify_one();
    return std::move(item.value);
  }

  /// Extracts (in FIFO order) up to `max` of `tenant`'s queued items that
  /// satisfy `pred` — batch formation after a pop(). Other tenants' items
  /// keep their place and their WFQ turn. Like pop(), advances the virtual
  /// floor and frees space for blocked pushers. Does not block; returns what
  /// is queued right now.
  template <class Pred>
  std::vector<T> take_matching(const std::string& tenant, Pred&& pred,
                               std::size_t max) {
    std::vector<T> taken;
    std::lock_guard lk(mu_);
    const auto found = tenants_.find(tenant);
    if (found == tenants_.end()) return taken;
    Tenant& t = found->second;
    for (auto it = t.items.begin(); it != t.items.end() && taken.size() < max;) {
      if (pred(std::as_const(it->value))) {
        vfloor_ = std::max(vfloor_, it->finish_tag);
        taken.push_back(std::move(it->value));
        it = t.items.erase(it);
      } else {
        ++it;
      }
    }
    if (!taken.empty()) t.not_full.notify_all();
    return taken;
  }

  /// Stops admission; queued items stay poppable, blocked pushers wake.
  void close() {
    {
      std::lock_guard lk(mu_);
      closed_ = true;
      for (auto& [name, t] : tenants_) t.not_full.notify_all();
    }
    not_empty_.notify_all();
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    std::size_t n = 0;
    for (const auto& [name, t] : tenants_) n += t.items.size();
    return n;
  }

 private:
  struct Item {
    std::uint64_t deadline_tick = 0;  ///< 0 = no deadline
    double finish_tag = 0.0;          ///< WFQ virtual finish time
    std::uint64_t seq = 0;            ///< admission order, final tiebreak
    T value;
  };

  struct Tenant {
    TenantPolicy policy;
    std::deque<Item> items;
    double vtime = 0.0;
    std::condition_variable not_full;
  };

  Tenant& tenant_of(const std::string& name) {
    const auto it = tenants_.find(name);
    if (it != tenants_.end()) return it->second;
    auto& t = tenants_[name];
    t.policy = fallback_;
    return t;
  }

  bool empty_locked() const {
    for (const auto& [name, t] : tenants_) {
      if (!t.items.empty()) return false;
    }
    return true;
  }

  TenantPolicy fallback_;

  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::map<std::string, Tenant> tenants_;
  double vfloor_ = 0.0;        ///< largest dispatched finish tag
  std::uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace tcgpu::serve
