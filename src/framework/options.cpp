#include "framework/options.hpp"

#include <cstdlib>
#include <sstream>
#include <stdexcept>

#include "framework/registry.hpp"
#include "gen/paper_datasets.hpp"
#include "simt/gpu_spec.hpp"

namespace tcgpu::framework {
namespace {

bool take_flag(const std::string& arg, const std::string& name, std::string* value) {
  const std::string prefix = "--" + name + "=";
  if (arg.rfind(prefix, 0) == 0) {
    *value = arg.substr(prefix.size());
    return true;
  }
  return false;
}

std::uint64_t parse_u64(const std::string& s, const std::string& flag) {
  try {
    std::size_t pos = 0;
    const std::uint64_t v = std::stoull(s, &pos);
    if (pos != s.size()) throw std::invalid_argument(s);
    return v;
  } catch (const std::exception&) {
    throw std::invalid_argument("bad numeric value for --" + flag + ": '" + s +
                                "' (expected an unsigned integer)");
  }
}

/// Rejects unknown algorithm names with a message listing the registry (the
/// valid list is derived from the registry at runtime, so newly registered
/// kernels appear without touching this file).
void check_algorithm_name(const std::string& name) {
  if (is_algorithm_name(name)) return;
  throw std::invalid_argument("unknown algorithm '" + name +
                              "' (valid: " + valid_algorithm_list() + ")");
}

std::vector<std::string> split_list(const std::string& value) {
  std::vector<std::string> items;
  std::stringstream ss(value);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) items.push_back(item);
  }
  return items;
}

}  // namespace

BenchOptions BenchOptions::parse(int argc, char** argv) {
  BenchOptions opt;
  if (const char* cap = std::getenv("TCGPU_EDGE_CAP")) {
    opt.max_edges = parse_u64(cap, "TCGPU_EDGE_CAP");
  }
  if (const char* seed = std::getenv("TCGPU_SEED")) {
    opt.seed = parse_u64(seed, "TCGPU_SEED");
  }
  if (const char* jobs = std::getenv("TCGPU_JOBS")) {
    opt.jobs = static_cast<std::size_t>(parse_u64(jobs, "TCGPU_JOBS"));
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--full") {
      opt.max_edges = 0;
    } else if (arg == "--csv") {
      opt.csv = true;
    } else if (arg == "--json") {
      opt.json = true;
    } else if (arg == "--serial") {
      opt.jobs = 1;
    } else if (take_flag(arg, "jobs", &value)) {
      opt.jobs = static_cast<std::size_t>(parse_u64(value, "jobs"));
    } else if (take_flag(arg, "max-edges", &value)) {
      opt.max_edges = parse_u64(value, "max-edges");
    } else if (take_flag(arg, "seed", &value)) {
      opt.seed = parse_u64(value, "seed");
    } else if (take_flag(arg, "gpu", &value)) {
      if (value != "v100" && value != "rtx4090") {
        throw std::invalid_argument("unknown --gpu (use v100 or rtx4090)");
      }
      opt.gpu = value;
    } else if (take_flag(arg, "gpus", &value)) {
      const std::uint64_t n = parse_u64(value, "gpus");
      if (n < 1 || n > 64) {
        throw std::invalid_argument("--gpus must be in [1, 64], got " + value);
      }
      opt.gpus = static_cast<std::uint32_t>(n);
    } else if (take_flag(arg, "partition", &value)) {
      if (value != "range" && value != "hash" && value != "2d" &&
          value != "host") {
        throw std::invalid_argument("unknown --partition '" + value +
                                    "' (use range, hash, 2d or host)");
      }
      opt.partition = value;
    } else if (take_flag(arg, "hosts", &value)) {
      // --hosts=H or --hosts=HxD (the HostSpec x DeviceSpec spelling: H
      // hosts of D devices each, which also pins gpus = H * D).
      const std::size_t x = value.find('x');
      const std::string hosts_part = value.substr(0, x);
      const std::uint64_t h = parse_u64(hosts_part, "hosts");
      if (h < 1 || h > 64) {
        throw std::invalid_argument("--hosts host count must be in [1, 64], got " +
                                    hosts_part);
      }
      opt.hosts = static_cast<std::uint32_t>(h);
      if (x != std::string::npos) {
        const std::string dev_part = value.substr(x + 1);
        const std::uint64_t d = parse_u64(dev_part, "hosts");
        if (d < 1 || h * d > 64) {
          throw std::invalid_argument(
              "--hosts=HxD needs 1 <= D and H*D <= 64, got " + value);
        }
        opt.gpus = static_cast<std::uint32_t>(h * d);
      }
    } else if (take_flag(arg, "interconnect", &value)) {
      simt::interconnect_spec_from_string(value);  // reject typos with the
                                                   // preset list, exit 2
      opt.interconnect = value;
    } else if (take_flag(arg, "datasets", &value)) {
      for (auto& item : split_list(value)) {
        gen::dataset_by_name(item);  // reject typos with exit 2 and the list
                                     // of valid names, not an empty sweep
        opt.datasets.push_back(std::move(item));
      }
    } else if (take_flag(arg, "algos", &value)) {
      for (auto& item : split_list(value)) {
        check_algorithm_name(item);
        opt.algos.push_back(std::move(item));
      }
    } else if (take_flag(arg, "algo", &value)) {
      check_algorithm_name(value);
      opt.algos.push_back(value);
    } else if (take_flag(arg, "max-resident", &value)) {
      opt.max_resident = static_cast<std::size_t>(parse_u64(value, "max-resident"));
    } else if (take_flag(arg, "clients", &value)) {
      opt.clients = static_cast<std::size_t>(parse_u64(value, "clients"));
    } else if (take_flag(arg, "queries", &value)) {
      opt.queries = parse_u64(value, "queries");
    } else if (take_flag(arg, "check-picks", &value)) {
      opt.check_picks = value;
    } else if (take_flag(arg, "check-placements", &value)) {
      opt.check_placements = value;
    } else if (take_flag(arg, "mutations", &value)) {
      const std::uint64_t n = parse_u64(value, "mutations");
      if (n < 1) {
        throw std::invalid_argument("--mutations must be >= 1, got " + value);
      }
      opt.mutations = n;
    } else if (take_flag(arg, "stream-batch", &value)) {
      const auto items = split_list(value);
      if (items.empty()) {
        throw std::invalid_argument(
            "--stream-batch needs at least one batch size");
      }
      for (const auto& item : items) {
        const std::uint64_t n = parse_u64(item, "stream-batch");
        if (n < 1 || n > 1'048'576) {
          throw std::invalid_argument(
              "--stream-batch sizes must be in [1, 1048576], got " + item);
        }
        opt.stream_batch.push_back(n);
      }
    } else if (take_flag(arg, "snapshots", &value)) {
      const std::uint64_t n = parse_u64(value, "snapshots");
      if (n < 1 || n > 64) {
        throw std::invalid_argument("--snapshots must be in [1, 64], got " +
                                    value);
      }
      opt.snapshots = static_cast<std::size_t>(n);
    } else if (arg.rfind("--benchmark", 0) == 0) {
      // google-benchmark flags pass through untouched
    } else {
      throw std::invalid_argument("unknown flag: " + arg);
    }
  }
  return opt;
}

}  // namespace tcgpu::framework
