#include "axonn/comm/chaos_comm.hpp"

#include <cstdint>
#include <thread>
#include <utility>

#include "axonn/base/crc32.hpp"
#include "axonn/base/error.hpp"
#include "axonn/base/log.hpp"
#include "axonn/base/rng.hpp"
#include "axonn/comm/thread_comm.hpp"
#include "axonn/integrity/integrity.hpp"

namespace axonn::comm {

namespace {

/// Deterministic per-(seed, rank, op) draw in [0, 1).
double schedule_draw(std::uint64_t seed, int rank, std::uint64_t op) {
  const std::uint64_t h = mix64(hash_combine(
      hash_combine(seed, static_cast<std::uint64_t>(rank)), op));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/// Deterministic bit index into a buffer of `n` floats.
std::size_t schedule_bit(std::uint64_t seed, int rank, std::uint64_t op,
                         std::size_t n) {
  const std::uint64_t h = mix64(hash_combine(
      hash_combine(hash_combine(seed, static_cast<std::uint64_t>(rank)), op),
      0xB17Full));
  return static_cast<std::size_t>(h % (n * 32));
}

/// Bit of element 0 flipped by the targeted wire fault and the one-shot
/// memory corruption: it turns an ordinary value into an astronomically
/// wrong one.
constexpr std::size_t kTargetBit = 30;

void flip_payload_bit(std::span<float> payload, std::size_t bit) {
  auto* words = reinterpret_cast<std::uint32_t*>(payload.data());
  words[bit / 32] ^= (1u << (bit % 32));
}

/// Hash of the message fields the program fixes. The communicator id is
/// left out: sub-communicator ids follow first arrival at split(). The
/// attempt is folded in so a retransmission of the same message redraws its
/// probabilistic faults.
std::uint64_t wire_hash(std::uint64_t seed,
                        const ThreadWorld::WireContext& ctx) {
  std::uint64_t h = hash_combine(seed, ctx.seq);
  h = hash_combine(h, (static_cast<std::uint64_t>(
                           static_cast<std::uint32_t>(ctx.src_world_rank))
                       << 32) |
                          static_cast<std::uint32_t>(ctx.dest_world_rank));
  h = hash_combine(h, ctx.msg_index);
  return hash_combine(h, static_cast<std::uint64_t>(ctx.attempt));
}

double wire_draw(std::uint64_t h, std::uint64_t salt) {
  return static_cast<double>(mix64(hash_combine(h, salt)) >> 11) * 0x1.0p-53;
}

/// The wire-fault schedule: a pure function of (config, message identity),
/// safe to call concurrently from rank/progress threads and identical no
/// matter which rank installed it.
void apply_wire_chaos(const ChaosConfig& cfg,
                      const ThreadWorld::WireContext& ctx,
                      std::span<float> payload) {
  const WireChaosConfig& w = cfg.wire;
  if (payload.empty()) return;
  const std::uint64_t h = wire_hash(cfg.seed, ctx);
  if (w.corrupt_probability > 0.0 &&
      wire_draw(h, 0xC0FFull) < w.corrupt_probability) {
    flip_payload_bit(payload,
                     static_cast<std::size_t>(mix64(hash_combine(h, 0xF11Bull))
                                              % (payload.size() * 32)));
    integrity::counters().wire_faults_injected.fetch_add(
        1, std::memory_order_relaxed);
  }
  if (w.target_seq >= 0 && ctx.attempt == 0 &&
      ctx.seq == static_cast<std::uint64_t>(w.target_seq) &&
      ctx.comm_id == 0 && ctx.msg_index == w.target_msg_index &&
      (w.target_src_world_rank < 0 ||
       ctx.src_world_rank == w.target_src_world_rank)) {
    flip_payload_bit(payload, kTargetBit);
    integrity::counters().wire_faults_injected.fetch_add(
        1, std::memory_order_relaxed);
  }
}

/// Provenance tag folded into every injected-fault report: the seed plus the
/// per-rank collective (draw) index reproduce the fault deterministically.
std::string chaos_note(std::uint64_t seed, std::uint64_t draw) {
  return "chaos seed=" + std::to_string(seed) + " draw=" + std::to_string(draw);
}

}  // namespace

ChaosComm::ChaosComm(Communicator& inner, const ChaosConfig& config)
    : inner_(&inner), state_(std::make_shared<State>()) {
  auto* thread_comm = dynamic_cast<ThreadComm*>(&inner);
  AXONN_CHECK_MSG(thread_comm != nullptr,
                  "ChaosComm needs a ThreadComm: its wire faults and hang act "
                  "on the ThreadWorld");
  state_->config = config;
  state_->world_rank = inner.rank();
  ThreadWorld* world = thread_comm->thread_world();
  // Tag the world so even errors raised below the chaos layer (watchdog
  // timeouts, ring CRC escalations) carry the seed that provoked them.
  world->set_fault_note("chaos seed=" + std::to_string(config.seed));
  if (config.wire.active()) {
    // The hook is world-global and the schedule is a pure function of the
    // config, so every rank installing its own (identical) copy is
    // idempotent.
    world->set_wire_fault_hook(
        [config](const ThreadWorld::WireContext& ctx,
                 std::span<float> payload) {
          apply_wire_chaos(config, ctx, payload);
        });
  }
}

ChaosComm::ChaosComm(std::unique_ptr<Communicator> owned,
                     std::shared_ptr<State> state)
    : inner_(owned.get()), owned_(std::move(owned)), state_(std::move(state)) {}

const std::vector<FaultEvent>& ChaosComm::fault_log() const {
  return state_->log;
}

std::uint64_t ChaosComm::begin_collective() {
  State& s = *state_;
  const std::uint64_t op = s.next_collective++;
  const std::string note = chaos_note(s.config.seed, op);
  if (s.config.slow_rank == s.world_rank && s.config.slow_delay.count() > 0) {
    s.log.push_back({FaultEvent::Kind::kDelay, op,
                     "delayed " + std::to_string(s.config.slow_delay.count()) +
                         "us on \"" + inner_->name() + "\" (" + note + ")"});
    std::this_thread::sleep_for(s.config.slow_delay);
  }
  if (s.config.hang_rank == s.world_rank &&
      op == s.config.hang_at_collective) {
    s.log.push_back({FaultEvent::Kind::kHang, op,
                     "rank " + std::to_string(s.world_rank) + " hung on \"" +
                         inner_->name() + "\" (" + note + ")"});
    AXONN_LOG_WARN << "ChaosComm: injecting hang of rank " << s.world_rank
                   << " at collective #" << op << " (" << note << ")";
    // Go silent: no collective is issued, no heartbeat beats. Spin until the
    // world aborts (watchdog path) or a peer's heartbeat check declares this
    // rank dead (elastic path), then unwind like a crashed rank. The inner
    // communicator is the wrapped ThreadComm or one split from it.
    auto& thread_comm = dynamic_cast<ThreadComm&>(*inner_);
    ThreadWorld* world = thread_comm.thread_world();
    const int my_world = thread_comm.world_rank_of(thread_comm.rank());
    for (;;) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      if (world->aborted() || (world->elastic() && world->is_dead(my_world))) {
        throw RankFailure(s.world_rank, op, note);
      }
    }
  }
  if (s.config.crash_rank == s.world_rank &&
      op == s.config.crash_at_collective) {
    s.log.push_back({FaultEvent::Kind::kCrash, op,
                     "rank " + std::to_string(s.world_rank) + " crashed on \"" +
                         inner_->name() + "\" (" + note + ")"});
    AXONN_LOG_WARN << "ChaosComm: injecting crash of rank " << s.world_rank
                   << " at collective #" << op << " (" << note << ")";
    throw RankFailure(s.world_rank, op, note);
  }
  return op;
}

void ChaosComm::maybe_corrupt(std::uint64_t op, std::span<float> result) {
  State& s = *state_;
  if (!result.empty() && !s.corrupt_once_fired &&
      s.config.corrupt_once_rank == s.world_rank &&
      op >= s.config.corrupt_once_collective) {
    // ">=": fires at the first *eligible* collective (blocking, non-empty
    // result) at or after the configured index, so the target doesn't have
    // to dodge barriers and nonblocking issues.
    s.corrupt_once_fired = true;
    flip_payload_bit(result.subspan(0, 1), kTargetBit);
    s.log.push_back({FaultEvent::Kind::kCorruption, op,
                     "one-shot flipped bit " + std::to_string(kTargetBit) +
                         " of element 0 on \"" + inner_->name() + "\" (" +
                         chaos_note(s.config.seed, op) + ")"});
  }
  if (s.config.corrupt_probability <= 0.0 || result.empty()) return;
  if (schedule_draw(s.config.seed, s.world_rank, op) >=
      s.config.corrupt_probability) {
    return;
  }
  const std::size_t bit =
      schedule_bit(s.config.seed, s.world_rank, op, result.size());
  flip_payload_bit(result, bit);
  s.log.push_back({FaultEvent::Kind::kCorruption, op,
                   "flipped bit " + std::to_string(bit % 32) + " of element " +
                       std::to_string(bit / 32) + " on \"" + inner_->name() +
                       "\" (" + chaos_note(s.config.seed, op) + ")"});
}

void ChaosComm::verify_replicated(std::uint64_t op,
                                  std::span<const float> result) {
  if (!state_->config.verify_replicated_results) return;
  // CRC32 of the result, split into two 16-bit halves so the values are
  // exactly representable as floats, cross-checked with an all_gather on the
  // *inner* communicator (the check itself must not be chaos-targeted).
  const std::uint32_t crc = crc32(result.data(), result.size_bytes());
  const float mine[2] = {static_cast<float>(crc & 0xFFFFu),
                         static_cast<float>(crc >> 16)};
  std::vector<float> all(static_cast<std::size_t>(inner_->size()) * 2);
  inner_->all_gather(std::span<const float>(mine, 2), all);
  for (std::size_t i = 0; i < all.size(); i += 2) {
    if (all[i] != mine[0] || all[i + 1] != mine[1]) {
      throw DataCorruptionError(inner_->name(), op,
                                "result checksums differ across ranks",
                                chaos_note(state_->config.seed, op));
    }
  }
}

void ChaosComm::all_reduce(std::span<float> buffer, ReduceOp op) {
  const std::uint64_t index = begin_collective();
  inner_->all_reduce(buffer, op);
  maybe_corrupt(index, buffer);
  verify_replicated(index, buffer);
}

void ChaosComm::all_gather(std::span<const float> send,
                           std::span<float> recv) {
  const std::uint64_t index = begin_collective();
  inner_->all_gather(send, recv);
  maybe_corrupt(index, recv);
  verify_replicated(index, recv);
}

void ChaosComm::all_gatherv(std::span<const float> send, std::span<float> recv,
                            std::span<const std::size_t> recv_counts) {
  const std::uint64_t index = begin_collective();
  inner_->all_gatherv(send, recv, recv_counts);
  maybe_corrupt(index, recv);
  verify_replicated(index, recv);
}

void ChaosComm::reduce_scatter(std::span<const float> send,
                               std::span<float> recv, ReduceOp op) {
  const std::uint64_t index = begin_collective();
  inner_->reduce_scatter(send, recv, op);
  // Per-rank results differ by construction; no replication check.
  maybe_corrupt(index, recv);
}

void ChaosComm::reduce_scatterv(std::span<const float> send,
                                std::span<float> recv,
                                std::span<const std::size_t> counts,
                                ReduceOp op) {
  const std::uint64_t index = begin_collective();
  inner_->reduce_scatterv(send, recv, counts, op);
  maybe_corrupt(index, recv);
}

void ChaosComm::broadcast(std::span<float> buffer, int root) {
  const std::uint64_t index = begin_collective();
  inner_->broadcast(buffer, root);
  maybe_corrupt(index, buffer);
  verify_replicated(index, buffer);
}

void ChaosComm::barrier() {
  begin_collective();
  inner_->barrier();
}

Request ChaosComm::iall_reduce(std::span<float> buffer, ReduceOp op,
                               CommPriority priority) {
  begin_collective();
  return inner_->iall_reduce(buffer, op, priority);
}

Request ChaosComm::iall_gather(std::span<const float> send,
                               std::span<float> recv, CommPriority priority) {
  begin_collective();
  return inner_->iall_gather(send, recv, priority);
}

Request ChaosComm::iall_gatherv(std::span<const float> send,
                                std::span<float> recv,
                                std::span<const std::size_t> recv_counts,
                                CommPriority priority) {
  begin_collective();
  return inner_->iall_gatherv(send, recv, recv_counts, priority);
}

Request ChaosComm::ireduce_scatter(std::span<const float> send,
                                   std::span<float> recv, ReduceOp op,
                                   CommPriority priority) {
  begin_collective();
  return inner_->ireduce_scatter(send, recv, op, priority);
}

Request ChaosComm::ireduce_scatterv(std::span<const float> send,
                                    std::span<float> recv,
                                    std::span<const std::size_t> counts,
                                    ReduceOp op, CommPriority priority) {
  begin_collective();
  return inner_->ireduce_scatterv(send, recv, counts, op, priority);
}

Request ChaosComm::run_on_stream(std::function<void()> fn,
                                 CommPriority priority) {
  // A rank-local host function, not a collective: no chaos schedule step.
  return inner_->run_on_stream(std::move(fn), priority);
}

std::unique_ptr<Communicator> ChaosComm::split(int color, int key) {
  std::unique_ptr<Communicator> sub = inner_->split(color, key);
  if (!sub) return nullptr;
  return std::unique_ptr<Communicator>(
      new ChaosComm(std::move(sub), state_));
}

}  // namespace axonn::comm
