#pragma once

// axonn::mem — the tracked arena allocator (DESIGN.md §14).
//
// The paper's whole scaling argument is about fitting models per GPU, yet
// until this layer the repo could observe every wire byte (CommModelChecker)
// and not a single allocated one. axonn::mem closes that gap:
//
//   - Every tensor-sized allocation flows through allocate()/deallocate(),
//     stamped with a per-subsystem Tag (weights, activations, grads, adam,
//     packed_panels, comm_buffers, journal) taken from the ambient
//     thread-local ArenaScope at allocation time. The 64-byte block header
//     written in front of the payload records the tag and size, so
//     accounting stays correct no matter which thread frees the block or
//     what the mode was when it was allocated — and the payload keeps the
//     kCacheLineBytes alignment the GEMM kernels assume.
//   - Per-tag live bytes, cumulative allocation counts/bytes and high-water
//     marks are lock-free atomics (relaxed adds + a CAS-max for the HWMs);
//     allocation sizes additionally feed the metrics registry's log2
//     histograms through its per-thread shards when metrics are enabled.
//   - AXONN_MEM=off|track selects the mode: `off` is a plain aligned
//     allocation with no accounting, `track` (the default) adds the atomic
//     accounting.
//   - AXONN_MEM_TRACE=1 additionally emits per-tag live-byte counter events
//     into the Chrome trace (obs::counter) so the allocation timeline lines
//     up with the compute/comm spans of the flight recorder.
//
// perf::MemoryModel predicts the per-tag numbers this layer measures, and
// perf::MemoryModelChecker cross-validates the two — the memory twin of the
// CommModelChecker loop.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include "axonn/base/aligned.hpp"

namespace axonn::mem {

/// Subsystem tags. kUntagged is the ambient default (allocations outside any
/// ArenaScope); the named tags mirror the per-rank memory budget of a
/// training step.
enum class Tag : std::uint8_t {
  kUntagged = 0,
  kWeights,        ///< parameter shards, gathered weight blocks, OAG buffers
  kActivations,    ///< layer inputs/outputs, attention probs, backward d*
  kGrads,          ///< gradient shards and replicated gradient tensors
  kAdam,           ///< optimizer first/second moments
  kPackedPanels,   ///< tiled-GEMM packed operand panels
  kCommBuffers,    ///< ring segment frames, retained frames, RS staging
  kJournal,        ///< sentinel journal snapshots, checkpoint/replica blobs
};
inline constexpr std::size_t kNumTags = 8;
const char* to_string(Tag tag);

enum class Mode : std::uint8_t { kOff, kTrack };
const char* to_string(Mode mode);
/// Throws Error on anything but "off" | "track".
Mode parse_mode(std::string_view text);

/// The process-wide mode: AXONN_MEM at first use, overridable for tests.
/// Changing the mode affects new allocations only — in-flight blocks carry
/// their mode in the header and free correctly regardless.
Mode mode();
void set_mode(Mode m);

// ---------------------------------------------------------------------------
// Ambient tag
// ---------------------------------------------------------------------------

/// The calling thread's ambient tag (kUntagged outside every scope).
Tag current_tag();

/// RAII thread-local tag: allocations made by this thread while the scope is
/// alive are charged to `tag`. Scopes nest; the innermost wins.
class ArenaScope {
 public:
  explicit ArenaScope(Tag tag);
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope();

 private:
  Tag prev_;
};

// ---------------------------------------------------------------------------
// Raw allocation
// ---------------------------------------------------------------------------

/// Allocates `bytes` (may be 0 -> non-null unique pointer) aligned to
/// kCacheLineBytes, charged to current_tag(). Throws std::bad_alloc on
/// exhaustion.
void* allocate(std::size_t bytes);

/// Frees a pointer from allocate(). nullptr is a no-op. Safe from any thread
/// and across mode changes (the block header knows how it was allocated).
void deallocate(void* p) noexcept;

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

struct TagStats {
  std::uint64_t live_bytes = 0;   ///< currently allocated (requested bytes)
  std::uint64_t hwm_bytes = 0;    ///< high-water mark of live_bytes
  std::uint64_t allocs = 0;       ///< cumulative allocation count
  std::uint64_t alloc_bytes = 0;  ///< cumulative allocated bytes
};

TagStats tag_stats(Tag tag);
/// Sum of live bytes over all tags (maintained as its own atomic so the
/// total HWM is a true high-water of the sum, not a sum of per-tag HWMs).
std::uint64_t total_live_bytes();
std::uint64_t total_hwm_bytes();

/// Resets every high-water mark (per-tag and total) to the current live
/// bytes — opens a measurement window for MemoryModelChecker/benches.
/// Concurrent allocations continue to be folded in.
void reset_high_water_marks();

// ---------------------------------------------------------------------------
// Process memory (/proc/self/status)
// ---------------------------------------------------------------------------

struct ProcessMemory {
  std::uint64_t rss_bytes = 0;     ///< VmRSS, 0 when unavailable
  std::uint64_t vm_hwm_bytes = 0;  ///< VmHWM, 0 when unavailable
};
/// Samples the kernel's view of the process. Returns zeros on platforms
/// without /proc (the tracked numbers above keep working everywhere).
ProcessMemory process_memory();

/// Mirrors the arena counters into the metrics registry as forced gauges
/// (mem.<tag>.live_bytes / mem.<tag>.hwm_bytes, totals, process
/// RSS/VmHWM). Cold path: call at export points (a metrics export hook runs
/// it automatically before every Prometheus write).
void publish_metrics();

// ---------------------------------------------------------------------------
// Tracked STL storage
// ---------------------------------------------------------------------------

/// AlignedAllocator routed through the arena. Stateless: the tag is read
/// from the ambient ArenaScope at each allocation and recorded in the block
/// header, so containers may be moved, swapped or freed anywhere without
/// mis-accounting.
template <typename T>
struct TrackedAllocator {
  using value_type = T;
  static_assert(alignof(T) <= kCacheLineBytes);

  TrackedAllocator() = default;
  template <typename U>
  TrackedAllocator(const TrackedAllocator<U>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = TrackedAllocator<U>;
  };

  T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_alloc();
    }
    return static_cast<T*>(mem::allocate(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t) noexcept { mem::deallocate(p); }

  friend bool operator==(const TrackedAllocator&, const TrackedAllocator&) {
    return true;
  }
};

template <typename T>
using TrackedVector = std::vector<T, TrackedAllocator<T>>;

}  // namespace axonn::mem
