// What one measured phase records: per-client samples (merged after the
// clients join), counter deltas read through each layer's public
// counters() accessor, and the traced phase's spans.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fleet/service.hpp"
#include "framework/engine.hpp"
#include "gen/rng.hpp"
#include "serve/service.hpp"
#include "trace.hpp"

namespace perfbench {

/// Nearest-rank percentile (p in [0, 1]); 0 for no samples.
inline double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(p * static_cast<double>(v.size() - 1) + 0.5);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

inline double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

/// Mean of the samples between the p - 0.05 and p + 0.05 quantiles: an
/// estimate of the p-th percentile that does not jump when the samples next
/// to it trade ranks. The end-to-end p50_ms/p90_ms use it because grid's
/// samples (54 cells of very different size, two sweeps) are sparse there:
/// adjacent cells near the median differ by ~12%.
inline double band_percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double last = static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::max(0.0, p - 0.05) * last + 0.5);
  const auto hi = static_cast<std::size_t>(std::min(1.0, p + 0.05) * last + 0.5);
  double sum = 0.0;
  for (std::size_t i = lo; i <= hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo + 1);
}

/// Samples with bounded memory: every sample up to kCap, then a uniform
/// reservoir of kCap (Algorithm R), so the benchmark's own bookkeeping does
/// not make peak RSS grow with throughput.
class Samples {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 16;

  void add(double v) {
    ++seen_;
    if (kept_.size() < kCap) {
      kept_.push_back(v);
    } else if (const std::uint64_t j = rng_.uniform(seen_); j < kCap) {
      kept_[j] = v;
    }
  }

  void merge(const Samples& o) {
    kept_.insert(kept_.end(), o.kept_.begin(), o.kept_.end());
    seen_ += o.seen_;
  }

  std::uint64_t seen() const { return seen_; }
  const std::vector<double>& kept() const { return kept_; }

 private:
  std::vector<double> kept_;
  std::uint64_t seen_ = 0;
  tcgpu::gen::SplitMix64 rng_{0x9e3779b97f4a7c15ULL};
};

inline double percentile(const Samples& s, double p) { return percentile(s.kept(), p); }

/// Samples of one client thread (or of the whole phase once merged). The
/// per-layer vectors are filled only in the traced phase; the sums are
/// cheap and always kept.
struct ClientStats {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< first few failure messages

  Samples latency_ms;  ///< primary op: count query or sweep cell
  Samples commit_ms;   ///< mutation replies (serve_churn)

  // Reply stage sums (every phase): the prepare/kernel split.
  double service_ms_sum = 0.0;
  double prepare_ms_sum = 0.0;
  double run_ms_sum = 0.0;

  // Modeled device time per OK result (cache hits count as 0).
  double device_ms = 0.0;
  std::uint64_t device_results = 0;

  // Per-layer detail (traced phase only).
  Samples wait_ms, queue_ms, select_ms, prepare_ms, run_ms;
  Samples commit_run_ms, materialize_ms;
  std::map<std::string, double> kernel_host_s;
  tcgpu::simt::KernelMetrics kernel_metrics;
  std::uint64_t kernel_runs = 0;
  double kernel_host_total_s = 0.0;
  std::uint64_t commits = 0;
  std::uint64_t recounts = 0;
  std::uint64_t stream_lane_steps = 0;
  SpanLog spans;

  void fail(std::string msg) {
    ++failed;
    if (errors.size() < 5) errors.push_back(std::move(msg));
  }

  void merge(ClientStats&& o) {
    attempted += o.attempted;
    failed += o.failed;
    for (auto& e : o.errors) {
      if (errors.size() < 5) errors.push_back(std::move(e));
    }
    const auto append = [](Samples& to, const Samples& from) { to.merge(from); };
    append(latency_ms, o.latency_ms);
    append(commit_ms, o.commit_ms);
    service_ms_sum += o.service_ms_sum;
    prepare_ms_sum += o.prepare_ms_sum;
    run_ms_sum += o.run_ms_sum;
    device_ms += o.device_ms;
    device_results += o.device_results;
    append(wait_ms, o.wait_ms);
    append(queue_ms, o.queue_ms);
    append(select_ms, o.select_ms);
    append(prepare_ms, o.prepare_ms);
    append(run_ms, o.run_ms);
    append(commit_run_ms, o.commit_run_ms);
    append(materialize_ms, o.materialize_ms);
    for (const auto& [k, v] : o.kernel_host_s) kernel_host_s[k] += v;
    kernel_metrics += o.kernel_metrics;
    kernel_runs += o.kernel_runs;
    kernel_host_total_s += o.kernel_host_total_s;
    commits += o.commits;
    recounts += o.recounts;
    stream_lane_steps += o.stream_lane_steps;
    spans.merge(std::move(o.spans));
  }
};

/// Counters of every layer, read through their public accessors.
struct Counters {
  tcgpu::framework::EngineCounters engine;
  tcgpu::serve::ServiceCounters service;
  tcgpu::fleet::FleetCounters fleet;
  double busy_ms = 0.0;  ///< modeled kernel time absorbed by all slots
  std::uint64_t shed = 0;
};

inline Counters delta(const Counters& a, const Counters& b) {
  Counters d;
  d.engine.prepares = b.engine.prepares - a.engine.prepares;
  d.engine.prepare_hits = b.engine.prepare_hits - a.engine.prepare_hits;
  d.engine.uploads = b.engine.uploads - a.engine.uploads;
  d.engine.upload_hits = b.engine.upload_hits - a.engine.upload_hits;
  d.engine.evictions = b.engine.evictions - a.engine.evictions;
  d.engine.bytes_uploaded = b.engine.bytes_uploaded - a.engine.bytes_uploaded;
  d.service.submitted = b.service.submitted - a.service.submitted;
  d.service.rejected = b.service.rejected - a.service.rejected;
  d.service.expired = b.service.expired - a.service.expired;
  d.service.errors = b.service.errors - a.service.errors;
  d.service.batched = b.service.batched - a.service.batched;
  d.fleet.single_runs = b.fleet.single_runs - a.fleet.single_runs;
  d.fleet.sharded_runs = b.fleet.sharded_runs - a.fleet.sharded_runs;
  d.fleet.cache_hits = b.fleet.cache_hits - a.fleet.cache_hits;
  d.fleet.invalidations = b.fleet.invalidations - a.fleet.invalidations;
  d.busy_ms = b.busy_ms - a.busy_ms;
  d.shed = b.shed - a.shed;
  return d;
}

/// One measured phase of a workload.
struct PhaseResult {
  double wall_s = 0.0;
  std::uint64_t passes = 0;  ///< whole sweeps (grid)
  ClientStats stats;
  Counters counters;  ///< deltas over the phase
  std::uint32_t devices = 0;  ///< fleet size (0: no fleet on this workload)
  std::vector<std::string> violations;  ///< failed workload invariants
  double peak_rss_mb = 0.0;
  Clock::time_point origin;  ///< span time base
};

/// Runs `clients` closed-loop threads for `seconds`: each calls
/// body(client, iteration, stats) for its next op only after the previous
/// one completed. Returns the merged stats and the wall time.
template <class Body>
void closed_loop(std::size_t clients, double seconds, PhaseResult& out, Body body) {
  std::vector<ClientStats> per(clients);
  const auto t0 = Clock::now();
  const auto deadline =
      t0 + std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(seconds));
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (std::uint64_t i = 0; Clock::now() < deadline; ++i) {
          try {
            body(c, i, per[c]);
          } catch (const std::exception& e) {
            per[c].fail(std::string("exception: ") + e.what());
          }
        }
      });
    }
    for (auto& t : threads) t.join();
  }
  out.wall_s = std::chrono::duration<double>(Clock::now() - t0).count();
  for (auto& s : per) out.stats.merge(std::move(s));
}

}  // namespace perfbench
