// Command-line / environment options shared by every benchmark harness.
//
// The paper's largest datasets (Twitter: 1.2 B edges) cannot be simulated
// on this host at full size, so all harnesses apply a per-dataset edge cap
// (DESIGN.md "Substitutions"). Raise it with --max-edges=N / TCGPU_EDGE_CAP
// or disable capping with --full.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace tcgpu::framework {

struct BenchOptions {
  std::uint64_t max_edges = 100'000;  ///< per-dataset edge cap (0 = no cap)
  std::uint64_t seed = 42;
  bool csv = false;                  ///< machine-readable output
  bool json = false;                 ///< JSON output (wins over csv)
  std::string gpu = "v100";          ///< "v100" | "rtx4090"
  std::vector<std::string> datasets; ///< empty = all 19
  std::vector<std::string> algos;    ///< algorithm selection; empty = bench default
  std::size_t jobs = 0;              ///< engine cell workers; 0 = auto, 1 = serial
  std::size_t max_resident = 0;      ///< prepared-graph cache cap (0 = unbounded)

  /// Multi-GPU benches only (src/dist/). 0 = sweep the default device
  /// counts; an explicit --gpus=N (1..64) runs just that N.
  std::uint32_t gpus = 0;
  /// "" = sweep all partition strategies; otherwise "range" | "hash" | "2d"
  /// | "host".
  std::string partition;
  /// Cluster benches: hosts the modeled devices spread over. 0 = bench
  /// default (single host / bench-defined sweep). --hosts=H pins the host
  /// count; --hosts=HxD pins hosts *and* devices per host (sets gpus=H*D).
  std::uint32_t hosts = 0;
  /// Interconnect preset name ("" = bench default). Validated against
  /// simt::interconnect_spec_from_string: nvlink | pcie3 | eth10g | ib-edr.
  std::string interconnect;

  /// Serving benches only (src/serve/): closed-loop load-generator shape.
  std::size_t clients = 0;    ///< concurrent closed-loop clients; 0 = default
  std::uint64_t queries = 0;  ///< total queries to issue; 0 = bench default
  /// "dataset:algorithm,..." — pinned selector decisions the serve bench
  /// asserts after warmup (CI regression gate); "" = no assertion.
  std::string check_picks;
  /// "dataset:placement,..." — pinned placer decisions, asserted the same
  /// way at one --gpus=N fleet size; "" = no assertion.
  std::string check_placements;

  /// Streaming benches only (src/stream/): churn-workload shape.
  std::uint64_t mutations = 0;            ///< total edge ops; 0 = bench default
  std::vector<std::uint64_t> stream_batch;  ///< batch sizes to sweep; empty = default
  std::size_t snapshots = 0;              ///< snapshot history depth; 0 = default

  /// Parses argv (flags: --max-edges=N --seed=N --full --csv --json
  /// --gpu=NAME --datasets=a,b,c --algos=a,b,c --algo=NAME --jobs=N
  /// --serial --max-resident=N --gpus=N --partition=range|hash|2d|host
  /// --hosts=H or HxD --interconnect=NAME
  /// --clients=N --queries=N --check-picks=ds:algo,...
  /// --check-placements=ds:placement,...
  /// --mutations=N --stream-batch=a,b,c --snapshots=N) with
  /// TCGPU_EDGE_CAP / TCGPU_SEED / TCGPU_JOBS as fallbacks.
  /// Unknown flags, unknown --datasets/--algos names and malformed numbers
  /// all throw with a one-line message naming the valid choices; bench
  /// mains print it and exit 2 rather than falling through to defaults.
  static BenchOptions parse(int argc, char** argv);
};

}  // namespace tcgpu::framework
