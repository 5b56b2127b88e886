// CMerge: vertex-centric, coarse-grained merge over compressed rows.
//
// One thread owns one anchor vertex u and streams its compressed row once
// per neighbor v, merging it against v's stream register-cached — the Polak
// loop shape with every "load col[i]" replaced by an on-the-fly LEB128
// decode (tc/intersect/varint.hpp). Global traffic shrinks to ~one word
// load per four stream bytes; the price is one ALU op per byte and a fully
// serial per-thread outer loop. Which side wins depends on the graph: at
// the default 100k-edge cap it beats Polak on As-Caida (0.0080 vs 0.0088
// ms) and loses to it on the other 18 datasets. It counts on a compressed
// image (DeviceGraph::upload_compressed) and runs unchanged on raw images
// by self-staging a compressed copy on the per-run scratch device (the BSR
// pattern), which is how bench/prepare_throughput measures the
// compressed-vs-raw crossover against Polak on one address stream.
#pragma once

#include "tc/common.hpp"

namespace tcgpu::tc {

class CMergeCounter final : public TriangleCounter {
 public:
  struct Config {
    std::uint32_t block = 256;
  };

  CMergeCounter() : cfg_{} {}
  explicit CMergeCounter(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "CMerge"; }
  AlgoTraits traits() const override { return {"vertex", "Merge", "coarse", 2024}; }
  AlgoResult count(simt::Device& dev, const simt::GpuSpec& spec,
                   const DeviceGraph& g) const override;

 private:
  Config cfg_;
};

}  // namespace tcgpu::tc
