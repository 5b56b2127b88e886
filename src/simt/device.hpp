// Simulated device global memory.
//
// A Device owns all global-memory allocations; DeviceBuffer<T> is a cheap
// non-owning typed view that kernels capture by value (the analogue of a
// device pointer). Each allocation gets a unique, 128-byte-aligned base in a
// flat device virtual address space, so coalescing math over addresses is
// faithful across buffer boundaries. Host code reads/writes through
// host_span() (the analogue of cudaMemcpy — unmetered); kernels go through
// ThreadCtx, which meters every access.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace tcgpu::simt {

template <class T>
class DeviceBuffer;

class Device {
 public:
  Device() = default;
  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  /// Allocates `count` value-initialized elements of T in device memory.
  template <class T>
  DeviceBuffer<T> alloc(std::size_t count, std::string name = {});

  std::uint64_t bytes_allocated() const { return bytes_allocated_; }
  std::size_t allocation_count() const { return allocations_.size(); }

 private:
  struct Allocation {
    std::unique_ptr<std::byte[]> data;
    std::uint64_t base = 0;
    std::size_t bytes = 0;
    std::string name;
  };

  static constexpr std::uint64_t kBaseStart = 0x10000;
  static constexpr std::uint64_t kAlign = 128;

  std::vector<Allocation> allocations_;
  std::uint64_t next_base_ = kBaseStart;
  std::uint64_t bytes_allocated_ = 0;
};

/// Non-owning typed view of a device allocation. Copy freely into kernels.
template <class T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t base_addr() const { return base_; }
  std::uint64_t addr_of(std::size_t i) const { return base_ + i * sizeof(T); }

  /// Unmetered host-side access (cudaMemcpy analogue).
  T* host_data() { return data_; }
  const T* host_data() const { return data_; }
  std::span<T> host_span() { return {data_, size_}; }
  std::span<const T> host_span() const { return {data_, size_}; }

  /// Unmetered raw element access used by the executor's atomics and checks.
  T* raw() const { return data_; }

 private:
  friend class Device;
  DeviceBuffer(T* data, std::uint64_t base, std::size_t size)
      : data_(data), base_(base), size_(size) {}

  T* data_ = nullptr;
  std::uint64_t base_ = 0;
  std::size_t size_ = 0;
};

template <class T>
DeviceBuffer<T> Device::alloc(std::size_t count, std::string name) {
  static_assert(std::is_trivially_copyable_v<T>,
                "device buffers hold trivially copyable types only");
  const std::size_t bytes = count * sizeof(T);
  Allocation a;
  // make_unique<byte[]> value-initializes, i.e. the storage is already
  // all-zero — which is T{} for every trivially copyable T we allow.
  a.data = std::make_unique<std::byte[]>(bytes == 0 ? 1 : bytes);
  a.base = next_base_;
  a.bytes = bytes;
  a.name = std::move(name);
  auto* typed = reinterpret_cast<T*>(a.data.get());
  DeviceBuffer<T> view(typed, a.base, count);
  next_base_ += (bytes + kAlign - 1) / kAlign * kAlign + kAlign;
  bytes_allocated_ += bytes;
  allocations_.push_back(std::move(a));
  return view;
}

}  // namespace tcgpu::simt
