// fleet::FleetService — the SLO-aware serving front door over a fleet.
//
// Composition: client -> serve::QueryService (EDF + per-tenant WFQ
// scheduler with per-tenant backpressure -> workers -> same-graph batching
// -> selection) -> fleet::Fleet (cache, placement, device slots) ->
// Engine / MultiDeviceRunner.
//
// FleetService owns no queue and no thread: it is a QueryService whose
// execution backend is the fleet. Tenants get weighted fair dispatch
// shares, deadline queries jump bulk work (EDF), a query already past its
// deadline is dropped before it costs a kernel, and one tenant's backlog
// blocks or sheds only that tenant — all in the one scheduler that every
// QueryService pops.
#pragma once

#include <utility>

#include "fleet/fleet.hpp"
#include "serve/service.hpp"

namespace tcgpu::fleet {

using serve::TenantPolicy;

class FleetService final : public serve::QueryService {
 public:
  using Config = serve::QueryService::Config;

  /// Borrows the engine and the fleet; both must outlive the service.
  /// `cfg.backend` is overwritten with the fleet.
  FleetService(framework::Engine& engine, Fleet& fleet, Config cfg)
      : serve::QueryService(engine, with_backend(std::move(cfg), fleet)) {}

  serve::QueryService& service() { return *this; }

 private:
  static Config with_backend(Config cfg, Fleet& fleet) {
    cfg.backend = &fleet;
    return cfg;
  }
};

}  // namespace tcgpu::fleet
