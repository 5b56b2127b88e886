// fleet::FleetService — a serve::QueryService over a borrowed fleet.
//
// Composition: client -> serve::QueryService (EDF + per-tenant WFQ
// scheduler with per-tenant backpressure -> workers -> same-graph batching
// -> selection) -> fleet::Fleet (cache, placement, device slots) ->
// Engine / MultiDeviceRunner.
//
// Every QueryService runs on a fleet; this is the spelling for an M-device
// fleet the caller owns (the QueryService(engine, fleet, cfg) constructor).
// It owns no queue and no thread: tenants get weighted fair dispatch
// shares, deadline queries jump bulk work (EDF), a query already past its
// deadline is dropped before it costs a kernel, and one tenant's backlog
// blocks or sheds only that tenant — all in the one scheduler that every
// QueryService pops.
#pragma once

#include "fleet/fleet.hpp"
#include "serve/service.hpp"

namespace tcgpu::fleet {

using serve::TenantPolicy;

class FleetService final : public serve::QueryService {
 public:
  using Config = serve::QueryService::Config;

  /// Borrows the engine and the fleet; both must outlive the service.
  FleetService(framework::Engine& engine, Fleet& fleet, Config cfg)
      : serve::QueryService(engine, fleet, cfg) {}

  serve::QueryService& service() { return *this; }
};

}  // namespace tcgpu::fleet
