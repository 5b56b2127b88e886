#include "framework/capacity.hpp"

#include <cstdio>
#include <cstring>

namespace tcgpu::framework {

namespace {

/// Reads one "<key>:   <kb> kB" line out of /proc/self/status.
double status_field_mb(const char* key, std::size_t key_len) {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, key, key_len) == 0) {
      unsigned long long kb = 0;
      if (std::sscanf(line + key_len, "%llu", &kb) == 1) {
        mb = static_cast<double>(kb) / 1024.0;
      }
      break;
    }
  }
  std::fclose(f);
  return mb;
#else
  (void)key;
  (void)key_len;
  return 0.0;
#endif
}

}  // namespace

double peak_rss_mb() { return status_field_mb("VmHWM:", 6); }

double current_rss_mb() { return status_field_mb("VmRSS:", 6); }

bool reset_peak_rss() {
#if defined(__linux__)
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  // "5" resets the peak-RSS watermark to the current RSS.
  const bool ok = std::fputs("5", f) >= 0;
  std::fclose(f);
  return ok;
#else
  return false;
#endif
}

}  // namespace tcgpu::framework
