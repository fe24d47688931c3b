// Chrome trace-event spans: RAII scopes that emit "X" (complete) events in
// the Chrome trace-event JSON-array format, loadable in chrome://tracing or
// Perfetto (ui.perfetto.dev → "Open trace file").
//
// Tracing is off unless started: either set the QP_TRACE environment
// variable to an output path before the process records its first span, or
// call start_trace(path) programmatically. When off, a span costs one
// relaxed atomic load and two dead stack stores — no clock reads.
//
// Hot-path contract: recording a span appends to a per-thread buffer; the
// sink lock is taken only when a thread's buffer fills (4096 events), when
// the thread exits, or on explicit flush. Worker threads that may park for
// long stretches (the thread pool) call trace_flush_current_thread() after
// finishing a job so their spans appear promptly.
//
// Timestamps are microseconds from a process-wide steady-clock origin.
// Event JSON does not affect any computed result; like obs/metrics, tracing
// observes and never perturbs (span lifetimes bracket existing code only).
//
//     void Engine::run() {
//       QP_TRACE_SPAN("sim.engine.run");
//       ...
//     }
#pragma once

#include <cstdint>
#include <string_view>

namespace qp::obs {

/// True once a sink is open (QP_TRACE env or start_trace) and not stopped.
// qp-lint: allow(test-only-export) -- read by TraceSpan's inline constructor below
[[nodiscard]] bool trace_enabled() noexcept;

/// Opens `path` (truncating) and starts recording. Returns false if the
/// file cannot be opened or a sink is already active.
bool start_trace(std::string_view path);

/// Flushes every thread's retired events plus the calling thread's live
/// buffer, writes the closing "]" and stops recording. (Buffers of other
/// still-live threads flush on their next span batch — benign for the
/// Chrome format, which tolerates a truncated tail; call
/// trace_flush_current_thread() from those threads first for completeness.)
void stop_trace();

/// Pushes the calling thread's buffered events to the sink. Cheap no-op
/// when tracing is off or the buffer is empty.
void trace_flush_current_thread();

namespace detail {
void span_emit(const char* name, std::uint64_t t0_us,
               std::uint64_t t1_us) noexcept;
[[nodiscard]] std::uint64_t trace_now_us() noexcept;
}  // namespace detail

/// RAII scoped span. `name` must outlive the span (string literals only —
/// the pointer is buffered, not copied).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) noexcept
      : name_(trace_enabled() ? name : nullptr),
        t0_us_(name_ != nullptr ? detail::trace_now_us() : 0) {}
  ~TraceSpan() {
    if (name_ != nullptr) {
      detail::span_emit(name_, t0_us_, detail::trace_now_us());
    }
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_;
  std::uint64_t t0_us_;
};

}  // namespace qp::obs

// Scoped span with a unique variable name; compiles to nothing observable
// when tracing is off.
#define QP_TRACE_SPAN_CAT2(a, b) a##b
#define QP_TRACE_SPAN_CAT(a, b) QP_TRACE_SPAN_CAT2(a, b)
#define QP_TRACE_SPAN(name) \
  ::qp::obs::TraceSpan QP_TRACE_SPAN_CAT(qp_trace_span_, __LINE__)(name)
