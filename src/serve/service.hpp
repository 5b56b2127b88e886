// serve::QueryService — the concurrent triangle-count front door.
//
// Queries (a registry dataset name, or an inline edge list) enter the
// Scheduler — per-tenant bounded queues with EDF + weighted-fair dispatch
// and per-tenant backpressure (block or shed); with one tenant it is a plain
// bounded FIFO. Workers pop it directly and batch that tenant's queued
// queries on the same graph into one prepare/upload, the Selector's cost
// model picks the kernel per query (unless the query forces one), and a
// fleet::Fleet executes it (result cache, then one warm device or a sharded
// run) — a one-device fleet the service owns, or a borrowed M-device one.
// Every reply carries the exact count, the chosen algorithm with its
// modeled cost, the run's KernelStats, its placement, and a per-query trace
// (enqueue → admit → prepare → select → run → reply).
//
// Long-running processes stay bounded: the Engine's prepared-graph cache is
// LRU-capped (Engine::Config::max_resident / Engine::evict), and one-shot
// graphs (inline, version-pinned) release their device images, single or
// sharded, through the fleet after their batch.
//
// Mutations (DESIGN.md "Streaming & versioning"): a request may carry edge
// inserts/removals for a named dataset. The first mutation moves the
// dataset onto a stream::DynamicGraph; the batch commits as one delta
// (inserts first, then removals) and bumps the dataset's version. A version
// bump invalidates every stale layer — the Engine's cached prepares of the
// dataset, the old snapshot's device images, the fleet's cached results and
// placements, the Selector's folded refinement for the old stats, and the
// sticky picks latched below the new version. Count queries on a streamed
// dataset answer from the current snapshot's materialized DAG (re-uploaded
// once per version, never re-prepared from scratch).
//
// Determinism contract: for a fixed workload set, selector decisions and
// counts are reproducible. Decisions are latched per (graph, version, hint)
// on first choice — version-keyed, so a latch cannot outlive a mutation —
// and refinement state is keyed by (algorithm, graph), so neither depends
// on which worker finished first; a serial warmup (one query per distinct
// graph, fixed order — what bench/serve_throughput does) pins the whole
// decision table.
#pragma once

#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "fleet/fleet.hpp"
#include "framework/engine.hpp"
#include "graph/coo.hpp"
#include "graph/types.hpp"
#include "serve/scheduler.hpp"
#include "serve/selector.hpp"
#include "serve/trace.hpp"

namespace tcgpu::serve {

enum class QueryStatus {
  kOk,               ///< count computed and validated
  kRejected,         ///< tenant queue full in shedding mode
  kShutdown,         ///< service no longer accepting queries
  kDeadlineExpired,  ///< deadline passed before the kernel could start
  kInvalidRequest,   ///< unknown dataset/algorithm name, empty request
  kError,            ///< execution failed (kernel fault, ...)
};

const char* to_string(QueryStatus s);

struct QueryRequest {
  /// Either a paper-registry dataset name...
  std::string dataset;
  /// ...or an inline edge list (used when `dataset` is empty). `name` labels
  /// replies/traces; batching keys on the edge list's content hash.
  graph::Coo edges;
  std::string name;  ///< label for inline queries (default "inline")

  /// Force a specific kernel by registry name; empty = selector decides.
  std::string algorithm;
  Hint hint = Hint::kAuto;
  /// Drop the query (kDeadlineExpired) if the kernel has not started this
  /// many ms after submission; 0 = no deadline.
  double deadline_ms = 0.0;

  /// Pin the query to a past snapshot of a streamed dataset (time-travel
  /// read): 0 = the head version. Non-zero requires a dataset that has
  /// mutated and a version still inside the snapshot history window
  /// (kInvalidRequest otherwise); mutations and inline graphs cannot pin.
  std::uint64_t version = 0;
  /// Fair-queueing identity: the scheduler bounds, weighs and orders each
  /// tenant's queue separately (QueryService::set_tenant_policy) and the
  /// reply echoes it. Empty = "default".
  std::string tenant;

  /// Mutation payload: applied to the named dataset as one batch (inserts
  /// first, then removals), bumping its version. Endpoints are in the
  /// served (relabeled) id space. Requires `dataset`; inline graphs cannot
  /// mutate (kInvalidRequest).
  std::vector<graph::Edge> insert_edges;
  std::vector<graph::Edge> remove_edges;
  bool is_mutation() const {
    return !insert_edges.empty() || !remove_edges.empty();
  }
};

struct QueryReply {
  QueryStatus status = QueryStatus::kError;
  std::string error;  ///< set for kInvalidRequest/kError

  std::string dataset;    ///< graph label
  std::string algorithm;  ///< kernel that ran (chosen or forced)
  bool selected = false;  ///< true when the selector (not the caller) chose
  CostBreakdown modeled;  ///< selector's score for the chosen kernel

  std::uint64_t triangles = 0;
  bool valid = false;  ///< count matched the CPU reference
  simt::KernelStats stats;
  QueryTrace trace;

  /// Graph version the reply reflects (0 until the dataset first mutates).
  std::uint64_t version = 0;
  /// Mutation replies: triangle-count change this batch produced.
  std::int64_t delta_triangles = 0;

  // How the fleet executed a count query.
  bool cache_hit = false;        ///< answered from the fleet's result cache
  bool sharded = false;          ///< kernel ran split across devices
  std::uint32_t devices = 1;     ///< shard count (1 = single device)
  double comm_ms = 0.0;          ///< modeled interconnect time (sharded only)
  std::string placement;         ///< "single" or "shard<k>:<strategy>[:<h>h]"
  std::string tenant;            ///< the request's tenant ("default" if empty)
};

struct ServiceCounters {
  std::uint64_t submitted = 0;  ///< admitted by the scheduler
  std::uint64_t rejected = 0;   ///< refused at admission (full/shutdown)
  std::uint64_t served = 0;     ///< replies delivered (any terminal status)
  std::uint64_t expired = 0;    ///< kDeadlineExpired replies
  std::uint64_t errors = 0;     ///< kInvalidRequest + kError replies
  std::uint64_t batches = 0;    ///< prepare/upload groups executed
  std::uint64_t batched = 0;    ///< queries that rode an existing batch
  std::uint64_t mutations = 0;  ///< mutation batches committed (kOk)
  std::uint64_t stream_queries = 0;  ///< counts answered from a snapshot
};

/// Per-tenant accounting. Every reply counts exactly once, as one of `ok`,
/// `shed`, `expired` or `errors`; `submitted` counts admissions.
struct TenantStats {
  std::uint64_t submitted = 0;  ///< admitted into the tenant's queue
  std::uint64_t shed = 0;       ///< refused at the tenant's queue bound
  std::uint64_t ok = 0;         ///< kOk replies
  std::uint64_t expired = 0;    ///< kDeadlineExpired replies
  std::uint64_t errors = 0;     ///< every other terminal status
};

class QueryService {
 public:
  struct Config {
    std::size_t workers = 2;  ///< threads popping the scheduler
    /// Policy for tenants without a set_tenant_policy() call. Its bound
    /// either blocks submit() (closed-loop clients) or resolves it at once
    /// with kRejected (load shedding).
    TenantPolicy default_policy;
  };

  /// Borrows the engine (graph cache, device pool, validation); the engine
  /// must outlive the service. Runs on a one-device fleet the service owns.
  /// Algorithm universe = selector's models.
  explicit QueryService(framework::Engine& engine) : QueryService(engine, Config{}) {}
  QueryService(framework::Engine& engine, Config cfg);
  /// Runs on a borrowed fleet built over the same engine; both must outlive
  /// the service.
  QueryService(framework::Engine& engine, fleet::Fleet& fleet, Config cfg);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Registers one tenant's weight/bound before (or during) traffic.
  void set_tenant_policy(const std::string& tenant, TenantPolicy policy);

  /// Submits one query under its request's tenant. The returned future
  /// resolves with a terminal reply (kOk, or a non-ok status — never
  /// abandoned). Applies the tenant's backpressure mode when its queue is
  /// full.
  std::future<QueryReply> submit(QueryRequest req);

  /// Stops admission, drains queued queries, joins the workers. Idempotent;
  /// also run by the destructor.
  void shutdown();

  ServiceCounters counters() const;
  std::map<std::string, TenantStats> tenant_stats() const;
  const Selector& selector() const { return selector_; }

  /// The latched (graph key, version, hint) -> algorithm decision table,
  /// sorted by key — what bench/serve_throughput prints and CI pins.
  /// Version-0 entries print as the bare key (the pinned static picks);
  /// later versions as "key@vN", and non-auto hints append "@hint".
  std::vector<std::pair<std::string, std::string>> decision_table() const;

  /// Current version of a streamed dataset (0 if it never mutated).
  std::uint64_t dataset_version(const std::string& dataset) const;

 private:
  struct Pending;      ///< one queued query: request + trace + promise
  struct StreamState;  ///< per-dataset DynamicGraph + materialized handle

  QueryService(framework::Engine& engine, std::unique_ptr<fleet::Fleet> own,
               fleet::Fleet* borrowed, Config cfg);

  void worker_loop();
  void process_batch(std::vector<std::unique_ptr<Pending>> batch);
  void finish(Pending& p, QueryReply reply);
  void handle_mutation(Pending& p, const std::string& label);
  std::shared_ptr<StreamState> stream_state(const std::string& dataset,
                                            bool create);
  framework::Engine::GraphHandle stream_handle(StreamState& ss,
                                               const std::string& dataset,
                                               std::uint64_t* version);

  framework::Engine& engine_;
  std::unique_ptr<fleet::Fleet> own_fleet_;  ///< null when borrowed
  fleet::Fleet& fleet_;
  Selector selector_;

  Scheduler<std::unique_ptr<Pending>> queue_;
  std::vector<std::thread> workers_;

  mutable std::mutex mu_;  ///< guards picks_, streams_ shape, counters_,
                           ///< tenant_stats_, stopped_
  using PickKey = std::tuple<std::string, std::uint64_t, Hint>;
  std::map<PickKey, std::string> picks_;
  std::map<std::string, std::shared_ptr<StreamState>> streams_;
  ServiceCounters counters_;
  std::map<std::string, TenantStats> tenant_stats_;
  bool stopped_ = false;
};

}  // namespace tcgpu::serve
