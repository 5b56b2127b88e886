// Per-query tracing for the serve layer: one timestamp per lifecycle stage
// (enqueue → admit → prepare → select → run → reply), stamped with a steady
// clock so stage durations are meaningful even when the host clock steps.
//
// Traces ride inside QueryReply, so every client sees exactly where its
// latency went: queueing (the whole wait in the service's one scheduler —
// fair-queue order, deadline order and backpressure alike), graph
// preparation (cache miss vs hit), selection (cost-model scoring) and
// kernel execution.
#pragma once

#include <chrono>
#include <string>

namespace tcgpu::serve {

struct QueryTrace {
  using Clock = std::chrono::steady_clock;
  using TimePoint = Clock::time_point;

  TimePoint enqueue;        ///< submit() was called (before admission)
  TimePoint admit;          ///< a worker popped it from the scheduler
  TimePoint prepare_start;  ///< graph pipeline lookup/run began
  TimePoint prepare_done;   ///< PreparedGraph handle available
  TimePoint select_done;    ///< algorithm chosen (cost model or override)
  TimePoint run_start;      ///< kernel dispatch began
  TimePoint run_done;       ///< kernel finished, count available
  TimePoint reply;          ///< promise fulfilled

  /// Milliseconds between two stamps (0 when either is unset or reversed).
  static double span_ms(TimePoint from, TimePoint to);

  double queue_ms() const { return span_ms(enqueue, admit); }
  double prepare_ms() const { return span_ms(prepare_start, prepare_done); }
  double select_ms() const { return span_ms(prepare_done, select_done); }
  double run_ms() const { return span_ms(run_start, run_done); }
  double total_ms() const { return span_ms(enqueue, reply); }

  /// One-line stage breakdown, e.g.
  /// "queue=0.12ms prepare=3.40ms select=0.01ms run=1.95ms total=5.50ms".
  std::string summary() const;
};

}  // namespace tcgpu::serve
