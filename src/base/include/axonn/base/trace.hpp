#pragma once

// axonn::obs — the flight recorder (observability layer).
//
// A lock-cheap per-rank span/counter recorder: every thread appends events to
// its own fixed-capacity ring buffer (one uncontended mutex per buffer, taken
// only against the rare snapshot), tagged with the thread's rank and stream
// kind. Rank threads are tagged kMain (the "compute stream"); ThreadWorld
// progress workers are tagged kProgress (the "communication stream"), so a
// merged trace shows — exactly like a GPU profiler — nonblocking collectives
// executing on the comm stream underneath GEMM spans on the compute stream.
//
// Consumers:
//   * write_chrome_trace(): chrome://tracing / Perfetto JSON (pid = rank,
//     tid = stream), visually comparable with the sim/ engine's export.
//   * iteration_reports(): Fig. 5's methodology on the real runtime — per
//     iteration compute time, exposed (non-overlapped) communication time and
//     overlap efficiency, derived from the merged spans (see DESIGN.md §7).
//
// Recording is off by default; enabled() is a single relaxed atomic load, so
// instrumentation costs ~nothing when tracing is disabled.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace axonn::obs {

enum class Phase : std::uint8_t { kBegin, kEnd, kCounter, kInstant };

/// Which role the recording thread plays on its rank. kMain is the rank's
/// compute thread; kProgress is the rank's progress worker (the analogue of
/// the NCCL communication stream).
enum class StreamKind : std::uint8_t { kMain = 0, kProgress = 1, kUnknown = 2 };

/// Sentinel depth for events that never went through record() (hand-built
/// test events, or a kEnd recorded while no span was open). Span rebuilding
/// falls back to plain stack matching for such events.
inline constexpr std::uint32_t kUnknownDepth = 0xffffffffu;

struct TraceEvent {
  double t_us = 0;  ///< microseconds since the process-wide trace epoch
  Phase phase = Phase::kInstant;
  StreamKind stream = StreamKind::kUnknown;
  int rank = -1;           ///< -1: thread never identified itself
  std::uint32_t tid = 0;   ///< registration id, unique per thread
  const char* category = "";  ///< static-lifetime taxonomy tag (see DESIGN §7)
  std::string name;
  double value = 0;  ///< kCounter payload
  /// Nesting depth at record time (begin: depth before push; end: depth of
  /// the begin it closes). Lets span rebuilding detect begin events lost to
  /// a full ring: an end whose depth does not match the open stack is an
  /// orphan and must not close someone else's begin. kUnknownDepth for
  /// events not produced by begin_span()/end_span().
  std::uint32_t depth = kUnknownDepth;
};

/// Span/counter taxonomy (the `category` field). Kept as constants so the
/// report builder and the instrumentation sites cannot drift apart.
inline constexpr const char* kCatComm = "comm";    ///< collective executing
inline constexpr const char* kCatWait = "wait";    ///< compute thread stalled
inline constexpr const char* kCatCompute = "compute";  ///< GEMM/attention/...
inline constexpr const char* kCatIter = "iter";    ///< one training iteration
inline constexpr const char* kCatCheck = "commcheck";  ///< Eq. 1–5 validation
inline constexpr const char* kCatIntegrity = "integrity";  ///< SDC detect/heal

bool enabled();
void set_enabled(bool on);

/// Tags the calling thread with a rank and stream kind; subsequent events it
/// records carry that identity. Called by ThreadWorld for rank threads and
/// progress workers; tests may call it directly.
void set_thread_ident(int rank, StreamKind stream);

/// Per-thread ring capacity (events). Takes effect for every buffer at the
/// next clear(); buffers created afterwards use it immediately.
void set_ring_capacity(std::size_t events);

/// Events dropped (overwritten) by full rings since the last clear().
std::uint64_t dropped_events();

/// Discards all recorded events (and applies a pending capacity change).
void clear();

void begin_span(const char* category, std::string name);
void end_span();
void counter(const char* category, std::string name, double value);
void instant(const char* category, std::string name);

/// RAII span. Default-constructed inactive so call sites can skip building
/// the name string entirely when tracing is off:
///   obs::SpanGuard span;
///   if (obs::enabled()) span.open(obs::kCatComm, "all_reduce(" + name + ")");
class SpanGuard {
 public:
  SpanGuard() = default;
  SpanGuard(const char* category, std::string name) {
    if (enabled()) open(category, std::move(name));
  }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;
  ~SpanGuard() { close(); }

  void open(const char* category, std::string name) {
    if (active_) return;
    begin_span(category, std::move(name));
    active_ = true;
  }
  void close() {
    if (!active_) return;
    end_span();
    active_ = false;
  }

 private:
  bool active_ = false;
};

/// Marks one training iteration on the calling rank (a kCatIter span);
/// iteration_reports() builds one IterationReport per such span.
class IterationScope {
 public:
  IterationScope() : guard_(kCatIter, "iteration") {}

 private:
  SpanGuard guard_;
};

/// Snapshot of every thread's ring, concatenated and stably sorted by
/// timestamp (per-thread event order is preserved for equal stamps). Safe to
/// call while other threads keep recording.
std::vector<TraceEvent> merged_events();

/// Chrome-trace ("chrome://tracing" / Perfetto) JSON. pid = rank, tid 0 is
/// the compute stream, tid 1 the comm stream; spans are B/E pairs, counters
/// are 'C' events, instants are 'i'.
void write_chrome_trace(std::ostream& out,
                        const std::vector<TraceEvent>& events);

/// Convenience: merged_events() -> file. Returns false (and logs a warning)
/// if the file cannot be written. If events were dropped (full rings) it logs
/// a warning and appends a "trace.dropped_events" counter event to the trace
/// (and sets the metrics gauge of the same name), so truncated traces are
/// self-describing.
bool write_chrome_trace_file(const std::string& path);

/// Scoped tracing for binaries: reads AXONN_TRACE on construction (an empty
/// value means "axonn.trace.json"); if set, enables recording, and on
/// destruction writes the merged Chrome trace to that path and logs it.
class TraceSession {
 public:
  TraceSession();                      ///< honour AXONN_TRACE
  explicit TraceSession(std::string path);  ///< force a path ("" = inactive)
  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;
  ~TraceSession();

  bool active() const { return !path_.empty(); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

// ---------------------------------------------------------------------------
// Span reconstruction
// ---------------------------------------------------------------------------

/// One closed span of one thread, rebuilt from kBegin/kEnd events.
struct SpanRec {
  double begin_us = 0;
  double end_us = 0;
  StreamKind stream = StreamKind::kUnknown;
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;  ///< kUnknownDepth when the begin carried none
  const char* category = "";
  std::string name;
};

/// Result of build_spans(): closed spans plus accounting for everything a
/// malformed stream (ring wrap, span open at snapshot) forced it to repair.
struct SpanSet {
  std::vector<SpanRec> spans;       ///< closed non-iteration spans
  std::vector<SpanRec> iterations;  ///< closed kCatIter spans, by begin time
  std::uint64_t orphan_ends = 0;    ///< kEnd whose begin was lost (ring wrap)
  std::uint64_t force_closed = 0;   ///< non-iter spans still open at snapshot
  std::uint64_t dropped_open_iterations = 0;  ///< iter spans open at snapshot
};

/// Rebuilds `rank`'s spans from a merged event stream, tolerating unbalanced
/// begin/end pairs: an end whose recorded depth does not match the open stack
/// is counted as orphan and ignored (its begin was overwritten by a full
/// ring) instead of popping an unrelated begin; non-iteration spans still
/// open when the stream ends are closed at the last observed timestamp;
/// open iterations are dropped entirely so a partial iteration can never
/// skew exposed-communication accounting.
SpanSet build_spans(const std::vector<TraceEvent>& events, int rank);

// ---------------------------------------------------------------------------
// Iteration breakdowns (Fig. 5 on the real runtime)
// ---------------------------------------------------------------------------

/// Per-iteration breakdown of one rank, mirroring sim::IterationBreakdown.
/// Fig. 5's definition: compute_s = wall_s - exposed_comm_s, where exposed
/// communication is the time the compute thread was stalled inside blocking
/// collectives or Request waits. Communication that executed on the progress
/// stream while the compute thread kept working is "hidden".
struct IterationReport {
  double wall_s = 0;          ///< duration of the kCatIter span
  double exposed_comm_s = 0;  ///< compute-thread comm/wait stall time
  double compute_s = 0;       ///< wall_s - exposed_comm_s (Fig. 5)
  double instrumented_compute_s = 0;  ///< sum of explicit kCatCompute spans
  double comm_busy_s = 0;     ///< union of all comm activity, either stream
  double hidden_comm_s = 0;   ///< comm_busy_s - exposed_comm_s (>= 0)
  double overlap_efficiency = 0;  ///< hidden / comm_busy (0 when no comm)
};

/// One report per kCatIter span of `rank` in `events` (as produced by
/// merged_events()), in chronological order.
std::vector<IterationReport> iteration_reports(
    const std::vector<TraceEvent>& events, int rank);

/// Field-wise arithmetic mean (empty input -> all zeros).
IterationReport mean_report(const std::vector<IterationReport>& reports);

}  // namespace axonn::obs
