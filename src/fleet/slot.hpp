// fleet::DeviceSlot — one modeled GPU's serving-time bookkeeping.
//
// The simulator has no real device memory, so a slot tracks what a real
// serving fleet would: which graph images are resident (charged the exact
// bytes framework::Engine accounted for the upload), how much modeled
// kernel time the device has absorbed (the fleet's least-loaded
// tiebreak), and an LRU over resident images so admission under a capacity
// budget (framework::device_budget_bytes) evicts the coldest image first.
//
// Thread model: slots are owned by fleet::Fleet and only touched under its
// dispatch mutex — no internal locking.
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <string>

namespace tcgpu::fleet {

struct DeviceSlot {
  std::uint32_t id = 0;
  std::uint64_t capacity_bytes = 0;  ///< device-memory budget (0 = unbounded)
  std::uint64_t resident_bytes = 0;  ///< sum over images_
  double busy_ms = 0.0;              ///< modeled kernel time absorbed
  std::uint64_t runs = 0;            ///< kernels dispatched here
  std::uint64_t evictions = 0;       ///< images dropped to fit the budget

  /// Resident graph images by key ("dataset" / "dataset@vN" / inline hash),
  /// value = accounted device bytes. lru_ front = most recently used.
  std::map<std::string, std::uint64_t> images;

  bool holds(const std::string& key) const { return images.count(key) != 0; }

  /// Marks `key` resident with `bytes` charged, evicting least-recently-used
  /// images while over budget (never the image just admitted). Re-admitting
  /// a resident key refreshes its LRU position and byte charge.
  void admit(const std::string& key, std::uint64_t bytes) {
    const auto it = images.find(key);
    if (it != images.end()) {
      resident_bytes -= it->second;
      it->second = bytes;
      lru_.remove(key);
    } else {
      images.emplace(key, bytes);
    }
    resident_bytes += bytes;
    lru_.push_front(key);
    while (capacity_bytes != 0 && resident_bytes > capacity_bytes &&
           lru_.size() > 1) {
      drop(lru_.back());
    }
  }

  /// Drops one image (no-op for absent keys).
  void drop(const std::string& key) {
    const auto it = images.find(key);
    if (it == images.end()) return;
    resident_bytes -= it->second;
    images.erase(it);
    lru_.remove(key);
    ++evictions;
  }

 private:
  std::list<std::string> lru_;
};

}  // namespace tcgpu::fleet
