// Spans recorded by the benchmark itself, around calls into each layer or
// rebuilt from a reply's stage stamps. Nothing under src/ is instrumented.
//
// A span carries name, start, end, parent and request id. The layer of a
// span is its name up to the first '.', e.g. "graph.prepare" -> graph. A
// layer's self time is its span minus the part its child spans cover; the
// uncovered time of a request is the part of its root span that no leaf
// (stage) span covers.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <streambuf>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct Span {
  const char* name = "";
  std::int32_t parent = -1;  ///< index within the request's spans; -1 = root
  std::uint64_t request = 0;
  Clock::time_point start;
  Clock::time_point end;
};

inline std::string_view layer_of(const char* name) {
  const std::string_view s(name);
  return s.substr(0, s.find('.'));
}

/// Milliseconds of [lo, hi] covered by the union of `parts` (each clipped;
/// sorts `parts` in place).
inline double covered_ms(std::vector<std::pair<Clock::time_point, Clock::time_point>>& parts,
                         Clock::time_point lo, Clock::time_point hi) {
  std::sort(parts.begin(), parts.end());
  double total = 0.0;
  Clock::time_point cursor = lo;
  for (auto [a, b] : parts) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b <= a) continue;
    total += ms_between(a, b);
    cursor = b;
  }
  return total;
}

/// Per-layer self time summed over requests, plus the uncovered remainder.
struct LayerTotals {
  std::map<std::string, double, std::less<>> self_ms;
  double root_ms = 0.0;
  double uncovered_ms = 0.0;

  /// Folds one request's span tree (spans[0] is the root).
  void add(const std::vector<Span>& spans) {
    if (spans.empty()) return;
    thread_local std::vector<std::pair<Clock::time_point, Clock::time_point>> kids, leaves;
    leaves.clear();
    for (std::size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (s.end <= s.start) continue;
      kids.clear();
      for (const Span& c : spans) {
        if (c.parent == static_cast<std::int32_t>(i)) kids.emplace_back(c.start, c.end);
      }
      const double self = ms_between(s.start, s.end) - covered_ms(kids, s.start, s.end);
      const std::string_view layer = layer_of(s.name);
      if (const auto it = self_ms.find(layer); it != self_ms.end()) {
        it->second += self;
      } else {
        self_ms.emplace(std::string(layer), self);
      }
      if (kids.empty() && i != 0) leaves.emplace_back(s.start, s.end);
    }
    const Span& root = spans[0];
    if (root.end <= root.start) return;
    root_ms += ms_between(root.start, root.end);
    uncovered_ms += ms_between(root.start, root.end) -
                    covered_ms(leaves, root.start, root.end);
  }

  void merge(const LayerTotals& o) {
    for (const auto& [k, v] : o.self_ms) self_ms[k] += v;
    root_ms += o.root_ms;
    uncovered_ms += o.uncovered_ms;
  }

  double share(std::string_view layer) const {
    const auto it = self_ms.find(layer);
    return it == self_ms.end() || root_ms <= 0.0 ? 0.0 : it->second / root_ms;
  }
};

/// One client thread's spans. Every request is folded into the totals; the
/// spans themselves are kept in memory for the first kKeepRequests requests
/// (bounded memory on the 100k-qps workloads) and written out at the end.
class SpanLog {
 public:
  static constexpr std::uint64_t kKeepRequests = 1024;

  void request(const std::vector<Span>& spans) {
    totals.add(spans);
    if (requests_++ < kKeepRequests) kept.insert(kept.end(), spans.begin(), spans.end());
  }

  void merge(SpanLog&& o) {
    totals.merge(o.totals);
    requests_ += o.requests_;
    kept.insert(kept.end(), o.kept.begin(), o.kept.end());
  }

  std::uint64_t requests() const { return requests_; }

  LayerTotals totals;
  std::vector<Span> kept;

 private:
  std::uint64_t requests_ = 0;
};

/// Writes kept spans as JSON lines, times in microseconds since `origin`.
inline void write_spans(std::ostream& os, const std::vector<Span>& spans,
                        Clock::time_point origin) {
  for (const Span& s : spans) {
    os << "{\"request\":" << s.request << ",\"name\":\"" << s.name
       << "\",\"parent\":" << s.parent << ",\"start_us\":"
       << std::chrono::duration<double, std::micro>(s.start - origin).count()
       << ",\"end_us\":"
       << std::chrono::duration<double, std::micro>(s.end - origin).count()
       << "}\n";
  }
}

/// Stream buffer that stamps the steady clock at every newline written. The
/// grid workload hands it to Engine::sweep as the progress stream: the
/// serial sweep writes one line after each prepare and one after each cell,
/// so the stamps delimit every cell from outside the engine.
class StampBuf : public std::streambuf {
 public:
  std::vector<Clock::time_point> stamps;

 protected:
  int overflow(int c) override {
    if (c == '\n') stamps.push_back(Clock::now());
    return c == traits_type::eof() ? traits_type::not_eof(c) : c;
  }
  std::streamsize xsputn(const char* s, std::streamsize n) override {
    for (std::streamsize i = 0; i < n; ++i) {
      if (s[i] == '\n') stamps.push_back(Clock::now());
    }
    return n;
  }
};

}  // namespace perfbench
