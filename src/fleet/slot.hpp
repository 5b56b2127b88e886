// fleet::DeviceSlot — one modeled GPU's serving-time bookkeeping: how much
// modeled kernel time the device has absorbed (the fleet's least-busy
// dispatch rule) and how many kernels it ran. Device images live for one
// run (framework::Engine::run, dist::MultiDeviceRunner::run), so a slot
// holds no residency.
//
// Thread model: slots are owned by fleet::Fleet and only touched under its
// dispatch mutex — no internal locking.
#pragma once

#include <cstdint>

namespace tcgpu::fleet {

struct DeviceSlot {
  std::uint32_t id = 0;
  double busy_ms = 0.0;    ///< modeled kernel time absorbed
  std::uint64_t runs = 0;  ///< kernels dispatched here
};

}  // namespace tcgpu::fleet
