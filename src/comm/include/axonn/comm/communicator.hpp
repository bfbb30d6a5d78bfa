#pragma once

// Communicator abstraction (MPI/NCCL-flavoured).
//
// AxoNN issues five kinds of collectives (all-reduce, all-gather,
// reduce-scatter, broadcast, barrier) over four families of process groups
// (X/Y/Z tensor-parallel and data-parallel). This interface is the seam
// between the 4D algorithm and the transport: the in-process ThreadComm
// executes real ring algorithms between thread ranks, size-1 groups included.
//
// Semantics follow MPI: collectives must be called by every rank of the
// communicator, in the same order. Nonblocking variants return a Request;
// the operation is complete only after wait(). Buffers passed to nonblocking
// calls must stay alive and untouched until completion — exactly the NCCL
// contract the paper's overlap optimizations (OAR/ORS/OAG) are built on.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <span>
#include <string>

#include "axonn/base/metrics.hpp"

namespace axonn::comm {

enum class ReduceOp { kSum, kMax, kMin };

/// Priority class of a nonblocking collective — which progress lane runs it.
///
/// The ThreadComm runtime drains each priority class on its own dedicated
/// FIFO worker (the in-process analogue of issuing to separate CUDA streams
/// with stream priorities), so a critical-path collective is never serialized
/// behind a bulk transfer that happens to be ahead of it in a single queue.
/// Lane assignment must be identical on every member rank for any given
/// collective (it is, when it is fixed per call site): within one lane the
/// issue order is cross-rank consistent, which keeps the per-lane FIFO
/// deadlock-free by the same argument as a single progress stream.
///   kHigh   — the consumer blocks on the result almost immediately
///             (e.g. the backward dI all-reduce, OAR: the previous layer's
///             backward needs it next).
///   kNormal — prefetches consumed a layer ahead (e.g. the OAG weight
///             all-gather).
///   kBulk   — results not needed until the end of the step (e.g. the dW
///             reduce-scatter, ORS: consumed at finish_gradients()).
enum class CommPriority { kHigh = 0, kNormal = 1, kBulk = 2 };
inline constexpr int kCommPriorityLanes = 3;

/// Byte/operation counters, accumulated per communicator. `wire_bytes` counts
/// bytes actually moved between ranks (what the network sees, and what the
/// paper's Eqs. 1–5 predict); `calls` counts collective invocations.
struct CommStats {
  std::uint64_t wire_bytes_sent = 0;
  std::uint64_t all_reduce_calls = 0;
  std::uint64_t all_gather_calls = 0;
  std::uint64_t reduce_scatter_calls = 0;
  std::uint64_t broadcast_calls = 0;
  std::uint64_t point_to_point_calls = 0;
  // Ring-CRC integrity accounting, kept out of wire_bytes_sent so the Eq. 1–5
  // CommModelChecker still sees exactly the payload bytes the model predicts.
  std::uint64_t crc_bytes_sent = 0;   ///< CRC stamps + retransmitted frames
  std::uint64_t crc_checks = 0;       ///< messages CRC-verified on receive
  std::uint64_t crc_retransmits = 0;  ///< NACK-triggered resends (this rank)

  CommStats& operator+=(const CommStats& other) {
    wire_bytes_sent += other.wire_bytes_sent;
    all_reduce_calls += other.all_reduce_calls;
    all_gather_calls += other.all_gather_calls;
    reduce_scatter_calls += other.reduce_scatter_calls;
    broadcast_calls += other.broadcast_calls;
    point_to_point_calls += other.point_to_point_calls;
    crc_bytes_sent += other.crc_bytes_sent;
    crc_checks += other.crc_checks;
    crc_retransmits += other.crc_retransmits;
    return *this;
  }
};

/// Completion handle for a nonblocking collective.
class Request {
 public:
  Request() = default;
  explicit Request(std::shared_future<void> done) : done_(std::move(done)) {}

  /// Blocks until the operation completes; rethrows any transport error.
  /// The blocked time is exposed communication, so it feeds the per-thread
  /// stall clock (obs::metrics::StallTimer; ~free when metrics are off).
  void wait() {
    if (!done_.valid()) return;
    obs::metrics::StallTimer stall;
    done_.get();
  }

  /// True if the operation has completed (does not rethrow).
  bool test() const {
    return !done_.valid() ||
           done_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  }

  bool valid() const { return done_.valid(); }

 private:
  std::shared_future<void> done_;
};

class Communicator {
 public:
  virtual ~Communicator() = default;

  virtual int rank() const = 0;
  virtual int size() const = 0;

  /// In-place sum/max/min across all ranks; every rank ends with the result.
  virtual void all_reduce(std::span<float> buffer, ReduceOp op) = 0;

  /// Gathers equal-size contributions: recv.size() == size() * send.size(),
  /// rank r's data lands at offset r * send.size().
  virtual void all_gather(std::span<const float> send,
                          std::span<float> recv) = 0;

  /// Variable-count gather: recv_counts[r] elements come from rank r, packed
  /// contiguously in rank order. send.size() must equal recv_counts[rank()].
  virtual void all_gatherv(std::span<const float> send, std::span<float> recv,
                           std::span<const std::size_t> recv_counts) = 0;

  /// Element-wise reduction of send across ranks, with rank r keeping the
  /// r-th equal chunk: send.size() == size() * recv.size().
  virtual void reduce_scatter(std::span<const float> send,
                              std::span<float> recv, ReduceOp op) = 0;

  /// Variable-count reduce-scatter; chunk r has counts[r] elements and
  /// sum(counts) == send.size(); recv.size() == counts[rank()].
  virtual void reduce_scatterv(std::span<const float> send,
                               std::span<float> recv,
                               std::span<const std::size_t> counts,
                               ReduceOp op) = 0;

  /// Root's buffer is copied to every rank.
  virtual void broadcast(std::span<float> buffer, int root) = 0;

  virtual void barrier() = 0;

  /// Nonblocking variants. Default implementations in concrete classes may
  /// run on a per-rank progress thread (the "communication stream");
  /// `priority` selects the progress lane (see CommPriority) and must be the
  /// same on every member rank for a given collective.
  virtual Request iall_reduce(std::span<float> buffer, ReduceOp op,
                              CommPriority priority = CommPriority::kNormal) = 0;
  virtual Request iall_gather(std::span<const float> send, std::span<float> recv,
                              CommPriority priority = CommPriority::kNormal) = 0;
  virtual Request iall_gatherv(std::span<const float> send,
                               std::span<float> recv,
                               std::span<const std::size_t> recv_counts,
                               CommPriority priority = CommPriority::kNormal) = 0;
  virtual Request ireduce_scatter(std::span<const float> send,
                                  std::span<float> recv, ReduceOp op,
                                  CommPriority priority = CommPriority::kNormal) = 0;
  virtual Request ireduce_scatterv(std::span<const float> send,
                                   std::span<float> recv,
                                   std::span<const std::size_t> counts,
                                   ReduceOp op,
                                   CommPriority priority = CommPriority::kNormal) = 0;

  /// Runs `fn` on this rank's progress lane for `priority`, FIFO-ordered
  /// after collectives already issued to the same lane — the in-process
  /// analogue of cudaLaunchHostFunc on a comm stream. Purely rank-local (no
  /// peer participates); the default runs inline on the calling thread,
  /// which is correct wherever there is no progress thread to defer to.
  virtual Request run_on_stream(std::function<void()> fn,
                                CommPriority priority = CommPriority::kNormal) {
    (void)priority;
    fn();
    return Request{};
  }

  /// Splits into disjoint sub-communicators by colour; ranks with the same
  /// colour form a group, ordered by key (ties broken by old rank). Must be
  /// called by all ranks. The returned communicator is owned by the caller
  /// rank (thread) only.
  virtual std::unique_ptr<Communicator> split(int color, int key) = 0;

  /// Cumulative traffic counters for this communicator on this rank.
  virtual const CommStats& stats() const = 0;
  virtual void reset_stats() = 0;

  /// Human-readable name for diagnostics ("world", "tp-x", ...).
  virtual std::string name() const { return "comm"; }
};

}  // namespace axonn::comm
