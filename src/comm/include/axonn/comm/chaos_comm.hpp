#pragma once

// Fault-injection decorator for any Communicator.
//
// At 32,768-GCD scale the paper's headline runs live in a regime where rank
// crashes, stragglers and flipped bits are operational events. ChaosComm
// makes those events reproducible at laptop scale: it wraps a communicator
// and, driven by a seeded deterministic schedule, injects
//   - added latency on a chosen rank before each collective (straggler),
//   - payload corruption (a single bit flip in the result buffer), and
//   - a hard rank crash at collective N (throwing RankFailure),
// so the watchdog, abort propagation, and checkpoint/restart layers can be
// exercised by ordinary unit tests. The same seed always produces the same
// fault sequence; every injected fault is recorded in fault_log().
//
// split() returns a ChaosComm-wrapped sub-communicator sharing this rank's
// schedule state, so the per-rank collective counter spans every process
// group the rank communicates over (as a real failure would).
//
// Corruption and result verification apply to blocking collectives; the
// nonblocking variants inject latency/crash at issue time and forward to the
// inner communicator untouched (hooking their completion would require a
// second progress thread for no extra test coverage).

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "axonn/comm/communicator.hpp"
#include "axonn/comm/fault.hpp"

namespace axonn::comm {

/// Transport-level (per-segment) chaos. The pipelined rings move each
/// collective as many small hop messages; faults that only strike finished
/// result buffers (corrupt_probability below) cannot exercise the segment
/// CRC/retransmit protection, so these are applied *inside* the transport,
/// per wire message, via ThreadWorld::set_wire_fault_hook. All draws are
/// pure functions of (seed, seq, src, dest, msg_index, attempt) — not of the
/// communicator id, which ThreadWorld hands to sub-communicators in
/// first-arrival order — so the same seed gives the same fault sequence
/// however the rank threads interleave, and a retransmission of the same
/// message redraws independently (so a healing ring escapes a probabilistic
/// fault), while the deterministic targeted flip fires on attempt 0 only.
struct WireChaosConfig {
  /// Per-message probability of flipping one schedule-chosen payload bit.
  double corrupt_probability = 0.0;

  /// Deterministic single-bit flip targeting exactly one message on the
  /// world communicator: collective sequence number `target_seq`, the
  /// `target_msg_index`-th message on the edge from `target_src_world_rank`
  /// (-1 = every matching sender edge). Flips bit 30 of payload element 0
  /// on the first transmission only. -1 disables.
  long long target_seq = -1;
  std::uint64_t target_msg_index = 0;
  int target_src_world_rank = -1;

  bool active() const {
    return corrupt_probability > 0.0 || target_seq >= 0;
  }
};

struct ChaosConfig {
  /// Seed for the deterministic fault schedule (corruption draws).
  std::uint64_t seed = 0;

  /// World rank that crashes (throws RankFailure) when its per-rank
  /// collective counter reaches `crash_at_collective`. -1 disables.
  int crash_rank = -1;
  std::uint64_t crash_at_collective = 0;

  /// World rank that *hangs* (stops issuing collectives and stops making
  /// progress, without dying) when its per-rank collective counter reaches
  /// `hang_at_collective`. Unlike a crash there is no exception and no abort:
  /// the rank just goes silent — the failure mode heartbeat detection exists
  /// for. The hung rank spins until the world aborts or (in an elastic
  /// world) a peer declares it dead, then unwinds with RankFailure so its
  /// thread exits like a crashed rank's. -1 disables.
  int hang_rank = -1;
  std::uint64_t hang_at_collective = 0;

  /// World rank that sleeps `slow_delay` before every collective (straggler
  /// emulation for watchdog tests). -1 disables.
  int slow_rank = -1;
  std::chrono::microseconds slow_delay{0};

  /// Per-collective probability (decided by hash(seed, rank, op)) of
  /// flipping one deterministic bit in the collective's result buffer.
  double corrupt_probability = 0.0;

  /// One-shot targeted *memory* corruption: at this rank's first eligible
  /// collective (blocking, non-empty result) at or after collective
  /// #corrupt_once_collective, flip bit 30 of element 0 of the result
  /// buffer. Post-collective, so it models corruption after delivery
  /// (bad HBM, ALU writeback) that no transport CRC can see — the fault class
  /// the training sentinel exists for. Bit 30 turns an ordinary value into
  /// an astronomically wrong one, which makes detection deterministic for
  /// threshold-based checks. -1 disables.
  int corrupt_once_rank = -1;
  std::uint64_t corrupt_once_collective = 0;

  /// Transport-level per-segment faults (see WireChaosConfig).
  WireChaosConfig wire;

  /// Cross-check a CRC32 of result buffers that should be identical on all
  /// ranks (all_reduce / broadcast / all_gather) over the inner
  /// communicator; on mismatch every rank throws DataCorruptionError.
  bool verify_replicated_results = false;

  /// True iff any fault or check above is switched on.
  bool armed() const {
    return crash_rank >= 0 || hang_rank >= 0 || slow_rank >= 0 ||
           corrupt_probability > 0.0 || corrupt_once_rank >= 0 ||
           wire.active() || verify_replicated_results;
  }
};

struct FaultEvent {
  enum class Kind { kDelay, kCorruption, kCrash, kHang };
  Kind kind;
  std::uint64_t collective_index;
  std::string detail;

  friend bool operator==(const FaultEvent&, const FaultEvent&) = default;
};

class ChaosComm final : public Communicator {
 public:
  /// Wraps `inner` (not owned; must outlive this object) for the rank that
  /// owns it. `inner` must be a ThreadComm: the wire faults and the hang act
  /// on its ThreadWorld. The rank identity used by crash/slow/corruption
  /// schedules is inner.rank() at wrap time — wrap the *world* communicator.
  ChaosComm(Communicator& inner, const ChaosConfig& config);
  ~ChaosComm() override = default;

  int rank() const override { return inner_->rank(); }
  int size() const override { return inner_->size(); }

  void all_reduce(std::span<float> buffer, ReduceOp op) override;
  void all_gather(std::span<const float> send, std::span<float> recv) override;
  void all_gatherv(std::span<const float> send, std::span<float> recv,
                   std::span<const std::size_t> recv_counts) override;
  void reduce_scatter(std::span<const float> send, std::span<float> recv,
                      ReduceOp op) override;
  void reduce_scatterv(std::span<const float> send, std::span<float> recv,
                       std::span<const std::size_t> counts,
                       ReduceOp op) override;
  void broadcast(std::span<float> buffer, int root) override;
  void barrier() override;

  Request iall_reduce(std::span<float> buffer, ReduceOp op,
                      CommPriority priority = CommPriority::kNormal) override;
  Request iall_gather(std::span<const float> send, std::span<float> recv,
                      CommPriority priority = CommPriority::kNormal) override;
  Request iall_gatherv(std::span<const float> send, std::span<float> recv,
                       std::span<const std::size_t> recv_counts,
                       CommPriority priority = CommPriority::kNormal) override;
  Request ireduce_scatter(std::span<const float> send, std::span<float> recv,
                          ReduceOp op,
                          CommPriority priority = CommPriority::kNormal) override;
  Request ireduce_scatterv(std::span<const float> send, std::span<float> recv,
                           std::span<const std::size_t> counts, ReduceOp op,
                           CommPriority priority = CommPriority::kNormal) override;
  Request run_on_stream(std::function<void()> fn,
                        CommPriority priority = CommPriority::kNormal) override;

  std::unique_ptr<Communicator> split(int color, int key) override;

  const CommStats& stats() const override { return inner_->stats(); }
  void reset_stats() override { inner_->reset_stats(); }
  std::string name() const override { return inner_->name(); }

  /// Every fault injected so far on this rank, across this wrapper and all
  /// sub-communicators split from it, in injection order.
  const std::vector<FaultEvent>& fault_log() const;

 private:
  // Per-rank schedule state, shared with split() children.
  struct State {
    ChaosConfig config;
    int world_rank;
    std::uint64_t next_collective = 0;
    bool corrupt_once_fired = false;
    std::vector<FaultEvent> log;
  };

  ChaosComm(std::unique_ptr<Communicator> owned, std::shared_ptr<State> state);

  /// Applies issue-time faults (latency, crash) and claims the op index.
  std::uint64_t begin_collective();
  void maybe_corrupt(std::uint64_t op, std::span<float> result);
  void verify_replicated(std::uint64_t op, std::span<const float> result);

  Communicator* inner_;
  std::unique_ptr<Communicator> owned_;  // set for split() children
  std::shared_ptr<State> state_;
};

}  // namespace axonn::comm
