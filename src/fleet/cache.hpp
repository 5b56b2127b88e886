// fleet::ResultCache — versioned triangle-count memoization.
//
// A count is a pure function of (graph key, graph version, algorithm): the
// engine validates every run against the CPU reference and versions are
// bumped by exactly one writer (the stream layer's commit), so a cached
// entry can be replayed verbatim until its graph mutates. How the kernel
// was chosen is not part of the key: a query forcing the kernel the
// selector would pick replays the auto query's entry. Invalidation is
// composed with stream versioning twice over — belt and braces:
//
//   * structurally, a mutated graph is queried at its NEW version, which is
//     a different key and can never hit a stale entry;
//   * explicitly, Fleet::invalidate(key) (called on every commit, and at the
//     end of every inline batch) drops all versions of the key, so stale
//     entries do not linger and a version number reused across a service
//     restart cannot resurrect them.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

namespace tcgpu::fleet {

struct CacheCounters {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t invalidations = 0;  ///< entries dropped by invalidate()
};

class ResultCache {
 public:
  struct Entry {
    std::uint64_t triangles = 0;
    bool valid = false;
  };

  /// Returns true and fills `out` on a hit; counts the miss otherwise.
  bool lookup(const std::string& key, std::uint64_t version,
              const std::string& algorithm, Entry* out) {
    std::lock_guard lk(mu_);
    const auto it = entries_.find(Key{key, version, algorithm});
    if (it == entries_.end()) {
      ++counters_.misses;
      return false;
    }
    ++counters_.hits;
    *out = it->second;
    return true;
  }

  void store(const std::string& key, std::uint64_t version,
             const std::string& algorithm, Entry entry) {
    std::lock_guard lk(mu_);
    entries_[Key{key, version, algorithm}] = entry;
  }

  /// Drops every entry of `key`, all versions/algorithms. Returns how many
  /// were dropped.
  std::size_t invalidate(const std::string& key) {
    std::lock_guard lk(mu_);
    std::size_t dropped = 0;
    auto it = entries_.lower_bound(Key{key, 0, std::string{}});
    while (it != entries_.end() && std::get<0>(it->first) == key) {
      it = entries_.erase(it);
      ++dropped;
    }
    counters_.invalidations += dropped;
    return dropped;
  }

  CacheCounters counters() const {
    std::lock_guard lk(mu_);
    return counters_;
  }

 private:
  using Key = std::tuple<std::string, std::uint64_t, std::string>;

  mutable std::mutex mu_;
  std::map<Key, Entry> entries_;
  CacheCounters counters_;
};

}  // namespace tcgpu::fleet
