#include "framework/registry.hpp"

#include <stdexcept>

#include "tc/bisson.hpp"
#include "tc/bsr.hpp"
#include "tc/cmerge.hpp"
#include "tc/cstage.hpp"
#include "tc/fox.hpp"
#include "tc/green.hpp"
#include "tc/grouptc.hpp"
#include "tc/grouptc_hash.hpp"
#include "tc/hindex.hpp"
#include "tc/hu.hpp"
#include "tc/polak.hpp"
#include "tc/tricore.hpp"
#include "tc/trust.hpp"

namespace {

/// The kernels composed directly from tc/intersect/ policies: BSR plus the
/// two compressed-CSR decoders (varint.hpp).
std::vector<tcgpu::framework::AlgorithmEntry> library_algorithms() {
  return {
      {"BSR", [] { return std::make_unique<tcgpu::tc::BsrCounter>(); }},
      {"CMerge", [] { return std::make_unique<tcgpu::tc::CMergeCounter>(); }},
      {"CStage", [] { return std::make_unique<tcgpu::tc::CStageCounter>(); }},
  };
}

}  // namespace

namespace tcgpu::framework {

const std::vector<AlgorithmEntry>& all_algorithms() {
  static const std::vector<AlgorithmEntry> entries = {
      {"Green", [] { return std::make_unique<tc::GreenCounter>(); }},
      {"Polak", [] { return std::make_unique<tc::PolakCounter>(); }},
      {"Bisson", [] { return std::make_unique<tc::BissonCounter>(); }},
      {"TriCore", [] { return std::make_unique<tc::TriCoreCounter>(); }},
      {"Fox", [] { return std::make_unique<tc::FoxCounter>(); }},
      {"Hu", [] { return std::make_unique<tc::HuCounter>(); }},
      {"H-INDEX", [] { return std::make_unique<tc::HIndexCounter>(); }},
      {"TRUST", [] { return std::make_unique<tc::TrustCounter>(); }},
      {"GroupTC", [] { return std::make_unique<tc::GroupTcCounter>(); }},
  };
  return entries;
}

const std::vector<AlgorithmEntry>& headline_algorithms() {
  static const std::vector<AlgorithmEntry> entries = {
      {"Polak", [] { return std::make_unique<tc::PolakCounter>(); }},
      {"TRUST", [] { return std::make_unique<tc::TrustCounter>(); }},
      {"GroupTC", [] { return std::make_unique<tc::GroupTcCounter>(); }},
  };
  return entries;
}

const std::vector<AlgorithmEntry>& extended_algorithms() {
  static const std::vector<AlgorithmEntry> entries = [] {
    std::vector<AlgorithmEntry> v = all_algorithms();
    v.push_back(
        {"GroupTC-H", [] { return std::make_unique<tc::GroupTcHashCounter>(); }});
    for (auto& e : library_algorithms()) v.push_back(std::move(e));
    return v;
  }();
  return entries;
}

const std::vector<AlgorithmEntry>& pool_algorithms() {
  static const std::vector<AlgorithmEntry> entries = [] {
    std::vector<AlgorithmEntry> v = all_algorithms();
    for (auto& e : library_algorithms()) v.push_back(std::move(e));
    return v;
  }();
  return entries;
}

const std::string& valid_algorithm_list() {
  static const std::string list = [] {
    std::string valid;
    for (const auto& e : extended_algorithms()) {
      if (!valid.empty()) valid += ", ";
      valid += e.name;
    }
    return valid;
  }();
  return list;
}

std::unique_ptr<tc::TriangleCounter> make_algorithm(const std::string& name) {
  for (const auto& e : extended_algorithms()) {
    if (e.name == name) return e.make();
  }
  throw std::out_of_range("unknown algorithm '" + name +
                          "' (valid: " + valid_algorithm_list() + ")");
}

bool is_algorithm_name(const std::string& name) {
  for (const auto& e : extended_algorithms()) {
    if (e.name == name) return true;
  }
  return false;
}

}  // namespace tcgpu::framework
