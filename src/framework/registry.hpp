// Algorithm registry — the unified framework's catalogue of the eight
// published ITC implementations plus GroupTC (Table I + §V).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "tc/common.hpp"

namespace tcgpu::framework {

using CounterFactory = std::function<std::unique_ptr<tc::TriangleCounter>()>;

struct AlgorithmEntry {
  std::string name;
  CounterFactory make;
};

/// All algorithms in Table I order (publication year), GroupTC last.
const std::vector<AlgorithmEntry>& all_algorithms();

/// The three §V protagonists (Figure 15): Polak, TRUST, GroupTC.
const std::vector<AlgorithmEntry>& headline_algorithms();

/// Everything in all_algorithms() plus this repo's extensions beyond the
/// paper: GroupTC-H (the hash-probe variant the paper's §VI names as future
/// work) and the three kernels built on the tc/intersect/ library — BSR
/// plus the compressed-adjacency pair CMerge and CStage. The figure benches
/// stick to the paper's set; tests and the extension bench cover these too.
const std::vector<AlgorithmEntry>& extended_algorithms();

/// The serving/selection pool: the nine paper kernels plus the three
/// intersection-library kernels — the 12 the serve::Selector carries cost
/// models for. Excludes GroupTC-H, which is GroupTC's probe ablation rather
/// than a distinct taxonomy cell.
const std::vector<AlgorithmEntry>& pool_algorithms();

/// Comma-separated names of every registered algorithm — the single source
/// for "valid:" lists in error messages (registry and CLI parsing alike).
const std::string& valid_algorithm_list();

/// Factory by name; throws std::out_of_range on unknown names.
std::unique_ptr<tc::TriangleCounter> make_algorithm(const std::string& name);

/// True iff `name` is registered (any entry of extended_algorithms()).
bool is_algorithm_name(const std::string& name);

}  // namespace tcgpu::framework
