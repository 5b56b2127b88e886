// CStage: vertex-centric, coarse-grained merge over compressed rows with a
// shared-memory staged anchor row.
//
// CMerge re-decodes the anchor row N+(u) once per neighbor; CStage pays the
// decode once — thread 0 of the block streams N+(u) into shared memory
// (decode is inherently sequential), then every thread takes one staged
// neighbor v and merges v's compressed stream against the staged row with
// shared-memory probes (Hu's shared-cache staging applied to compressed
// adjacency). Rows longer than the shared cache keep exactness via two
// fallbacks: staged v's count their tail matches with a dual-cursor merge
// restricted to anchor positions past the staged prefix, and tail v's are
// processed whole by thread 0. Like CMerge it self-stages a compressed
// copy on scratch when handed a raw image.
#pragma once

#include "tc/common.hpp"

namespace tcgpu::tc {

class CStageCounter final : public TriangleCounter {
 public:
  struct Config {
    std::uint32_t block = 256;
    std::uint32_t cache_entries = 2048;
  };

  CStageCounter() : cfg_{} {}
  explicit CStageCounter(Config cfg) : cfg_(cfg) {}

  std::string name() const override { return "CStage"; }
  AlgoTraits traits() const override { return {"vertex", "Merge", "coarse", 2024}; }
  AlgoResult count(simt::Device& dev, const simt::GpuSpec& spec,
                   const DeviceGraph& g) const override;

 private:
  Config cfg_;
};

}  // namespace tcgpu::tc
