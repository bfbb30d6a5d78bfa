#include "axonn/base/arena.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <thread>
#include <vector>

#include "axonn/base/error.hpp"
#include "axonn/base/metrics.hpp"

namespace axonn::mem {
namespace {

/// Restores the process mode on scope exit so tests compose in one binary.
class ModeGuard {
 public:
  explicit ModeGuard(Mode m) : prev_(mode()) { set_mode(m); }
  ~ModeGuard() { set_mode(prev_); }

 private:
  Mode prev_;
};

std::uint64_t live(Tag tag) { return tag_stats(tag).live_bytes; }

TEST(ArenaMode, ParseAndToString) {
  EXPECT_EQ(parse_mode("off"), Mode::kOff);
  EXPECT_EQ(parse_mode("track"), Mode::kTrack);
  EXPECT_THROW(parse_mode("arena"), Error);
  EXPECT_THROW(parse_mode("pool"), Error);
  EXPECT_STREQ(to_string(Mode::kTrack), "track");
  EXPECT_STREQ(to_string(Tag::kPackedPanels), "packed_panels");
}

TEST(ArenaScopeTest, NestsAndRestores) {
  EXPECT_EQ(current_tag(), Tag::kUntagged);
  {
    ArenaScope outer(Tag::kWeights);
    EXPECT_EQ(current_tag(), Tag::kWeights);
    {
      ArenaScope inner(Tag::kGrads);
      EXPECT_EQ(current_tag(), Tag::kGrads);
    }
    EXPECT_EQ(current_tag(), Tag::kWeights);
  }
  EXPECT_EQ(current_tag(), Tag::kUntagged);
}

TEST(ArenaTracking, ChargesAmbientTagAndReleases) {
  ModeGuard guard(Mode::kTrack);
  const std::uint64_t before = live(Tag::kActivations);
  void* p = nullptr;
  {
    ArenaScope scope(Tag::kActivations);
    p = allocate(1 << 20);
  }
  EXPECT_EQ(live(Tag::kActivations), before + (1 << 20));
  // The header carries the tag: freeing outside the scope still credits it.
  deallocate(p);
  EXPECT_EQ(live(Tag::kActivations), before);
}

TEST(ArenaTracking, HighWaterMarkAndReset) {
  ModeGuard guard(Mode::kTrack);
  ArenaScope scope(Tag::kJournal);
  reset_high_water_marks();
  const std::uint64_t base = tag_stats(Tag::kJournal).hwm_bytes;
  void* a = allocate(1 << 16);
  void* b = allocate(1 << 16);
  deallocate(a);
  deallocate(b);
  EXPECT_GE(tag_stats(Tag::kJournal).hwm_bytes, base + (2u << 16));
  reset_high_water_marks();
  // After reset the HWM equals live again, not the old peak.
  EXPECT_LT(tag_stats(Tag::kJournal).hwm_bytes, base + (2u << 16));
  EXPECT_EQ(tag_stats(Tag::kJournal).hwm_bytes,
            tag_stats(Tag::kJournal).live_bytes);
}

TEST(ArenaTracking, TotalIsTrueHighWaterOfSum) {
  ModeGuard guard(Mode::kTrack);
  reset_high_water_marks();
  const std::uint64_t start = total_live_bytes();
  ArenaScope scope(Tag::kActivations);
  void* a = allocate(1 << 18);
  const std::uint64_t peak = total_hwm_bytes();
  EXPECT_GE(peak, start + (1u << 18));
  deallocate(a);
  EXPECT_EQ(total_live_bytes(), start);
  EXPECT_GE(total_hwm_bytes(), peak);  // HWM survives the free
}

TEST(ArenaTracking, OffModeSkipsAccounting) {
  ModeGuard guard(Mode::kOff);
  ArenaScope scope(Tag::kAdam);
  const TagStats before = tag_stats(Tag::kAdam);
  void* p = allocate(1 << 16);
  EXPECT_EQ(tag_stats(Tag::kAdam).live_bytes, before.live_bytes);
  EXPECT_EQ(tag_stats(Tag::kAdam).allocs, before.allocs);
  deallocate(p);
  EXPECT_EQ(tag_stats(Tag::kAdam).live_bytes, before.live_bytes);
}

TEST(ArenaTracking, ModeChangeMidFlightFreesCorrectly) {
  // A block allocated under track must un-account exactly once even when
  // the mode flips before the free: deallocate trusts the header.
  ModeGuard guard(Mode::kTrack);
  ArenaScope scope(Tag::kWeights);
  const std::uint64_t before = live(Tag::kWeights);
  void* p = allocate(4096);
  set_mode(Mode::kOff);
  deallocate(p);
  set_mode(Mode::kTrack);
  EXPECT_EQ(live(Tag::kWeights), before);
}

TEST(ArenaTracking, CrossThreadFreeKeepsAccountsBalanced) {
  ModeGuard guard(Mode::kTrack);
  const std::uint64_t before = live(Tag::kCommBuffers);
  void* p = nullptr;
  {
    ArenaScope scope(Tag::kCommBuffers);
    p = allocate(1 << 19);
  }
  std::thread other([p] { deallocate(p); });
  other.join();
  EXPECT_EQ(live(Tag::kCommBuffers), before);
}

TEST(TrackedVectorTest, ChargesAndMovesAcrossScopes) {
  ModeGuard guard(Mode::kTrack);
  const std::uint64_t before = live(Tag::kActivations);
  TrackedVector<float> outside;
  {
    ArenaScope scope(Tag::kActivations);
    TrackedVector<float> v(1024, 1.0f);
    EXPECT_GE(live(Tag::kActivations), before + 1024 * sizeof(float));
    outside = std::move(v);  // storage moves out of the scope, tag sticks
  }
  EXPECT_GE(live(Tag::kActivations), before + 1024 * sizeof(float));
  outside.clear();
  outside.shrink_to_fit();
  EXPECT_EQ(live(Tag::kActivations), before);
}

TEST(TrackedVectorTest, AllocatorEqualityAndOverflow) {
  TrackedAllocator<float> a, b;
  EXPECT_TRUE(a == b);
  EXPECT_THROW(
      static_cast<void>(a.allocate(std::numeric_limits<std::size_t>::max() / 2)),
      std::bad_alloc);
}

TEST(ArenaTracking, ConcurrentAllocationBalances) {
  // Rank + progress threads allocate and free concurrently in production;
  // the relaxed-atomic accounting must balance exactly (ctest -L tsan runs
  // this under ThreadSanitizer).
  ModeGuard guard(Mode::kTrack);
  const std::uint64_t before = live(Tag::kActivations);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([] {
      ArenaScope scope(Tag::kActivations);
      for (int i = 0; i < 200; ++i) {
        void* p = allocate(static_cast<std::size_t>(1024 + 64 * i));
        deallocate(p);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(live(Tag::kActivations), before);
  EXPECT_GE(tag_stats(Tag::kActivations).allocs, 800u);
}

TEST(ArenaMetrics, PublishMirrorsIntoRegistry) {
  ModeGuard guard(Mode::kTrack);
  void* p = nullptr;
  {
    ArenaScope scope(Tag::kWeights);
    p = allocate(1 << 20);
  }
  publish_metrics();
  const auto snap = obs::metrics::snapshot();
  EXPECT_GE(snap.value_of("mem.weights.live_bytes"),
            static_cast<double>(1 << 20));
  EXPECT_GE(snap.value_of("mem.weights.hwm_bytes"),
            snap.value_of("mem.weights.live_bytes"));
  EXPECT_GE(snap.value_of("mem.total.live_bytes"),
            snap.value_of("mem.weights.live_bytes"));
  deallocate(p);
}

TEST(ArenaProcess, ProcStatusReadsWhenPresent) {
  const ProcessMemory pm = process_memory();
  // On Linux both numbers exist and RSS <= HWM; elsewhere both are zero.
  if (pm.vm_hwm_bytes > 0) {
    EXPECT_GT(pm.rss_bytes, 0u);
    EXPECT_LE(pm.rss_bytes, pm.vm_hwm_bytes + (64u << 20));
  }
}

}  // namespace
}  // namespace axonn::mem
