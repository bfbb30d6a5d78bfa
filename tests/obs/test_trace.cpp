// The flight recorder itself: span recording, cross-thread merging under
// concurrent ranks, ring-buffer overflow accounting, and the Chrome-trace
// JSON writer.

#include "axonn/base/trace.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "axonn/comm/thread_comm.hpp"

namespace axonn::obs {
namespace {

constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

// The recorder is process-global; every test starts from a clean, enabled
// state and leaves recording off for whoever runs next.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_ring_capacity(kDefaultCapacity);
    set_enabled(true);
    clear();
    set_thread_ident(0, StreamKind::kMain);
  }
  void TearDown() override {
    set_enabled(false);
    set_ring_capacity(kDefaultCapacity);
    clear();
  }
};

std::vector<TraceEvent> my_events() {
  std::vector<TraceEvent> out;
  for (const TraceEvent& ev : merged_events()) {
    if (ev.rank == 0) out.push_back(ev);
  }
  return out;
}

TEST_F(TraceTest, SpansPairUpInOrder) {
  begin_span(kCatCompute, "outer");
  begin_span(kCatComm, "inner");
  end_span();
  end_span();
  counter(kCatIntegrity, "sdc_detected", 3.0);
  instant(kCatCheck, "marker");

  const auto events = my_events();
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].phase, Phase::kBegin);
  EXPECT_EQ(events[0].name, "outer");
  EXPECT_EQ(std::string(events[0].category), kCatCompute);
  EXPECT_EQ(events[1].phase, Phase::kBegin);
  EXPECT_EQ(events[1].name, "inner");
  EXPECT_EQ(events[2].phase, Phase::kEnd);
  EXPECT_EQ(events[3].phase, Phase::kEnd);
  EXPECT_EQ(events[4].phase, Phase::kCounter);
  EXPECT_DOUBLE_EQ(events[4].value, 3.0);
  EXPECT_EQ(events[5].phase, Phase::kInstant);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t_us, events[i - 1].t_us) << "merge must be sorted";
  }
  for (const TraceEvent& ev : events) {
    EXPECT_EQ(ev.rank, 0);
    EXPECT_EQ(ev.stream, StreamKind::kMain);
  }
}

TEST_F(TraceTest, DisabledRecordingIsSilent) {
  set_enabled(false);
  begin_span(kCatCompute, "ignored");
  end_span();
  counter(kCatIntegrity, "ignored", 1.0);
  instant(kCatCheck, "ignored");
  EXPECT_TRUE(my_events().empty());
}

TEST_F(TraceTest, ConcurrentRanksMergeWithProgressStreamEvents) {
  // Four ranks issue a nonblocking all-reduce: the collective body must be
  // recorded on each rank's progress ("comm") stream while the rank thread
  // records its own compute span — the overlap picture of a GPU profiler.
  comm::run_ranks(4, [](comm::Communicator& world) {
    SpanGuard compute(kCatCompute, "busywork");
    std::vector<float> buffer(1024, 1.0f);
    comm::Request req = world.iall_reduce(buffer, comm::ReduceOp::kSum);
    req.wait();
    ASSERT_FLOAT_EQ(buffer[0], 4.0f);
  });

  const auto events = merged_events();
  for (int rank = 0; rank < 4; ++rank) {
    int main_events = 0;
    int progress_comm_begins = 0;
    int begins = 0, ends = 0;
    for (const TraceEvent& ev : events) {
      if (ev.rank != rank) continue;
      if (ev.stream == StreamKind::kMain) ++main_events;
      if (ev.phase == Phase::kBegin) ++begins;
      if (ev.phase == Phase::kEnd) ++ends;
      if (ev.stream == StreamKind::kProgress && ev.phase == Phase::kBegin &&
          std::string(ev.category) == kCatComm &&
          ev.name.find("iall_reduce") != std::string::npos) {
        // The task span; nested recv(src=N) spans also appear underneath.
        ++progress_comm_begins;
      }
    }
    EXPECT_GT(main_events, 0) << "rank " << rank;
    EXPECT_GE(progress_comm_begins, 1) << "rank " << rank;
    EXPECT_EQ(begins, ends) << "rank " << rank;
  }
  for (std::size_t i = 1; i < events.size(); ++i) {
    ASSERT_GE(events[i].t_us, events[i - 1].t_us);
  }
}

TEST_F(TraceTest, FullRingDropsOldestAndCounts) {
  set_ring_capacity(8);
  clear();  // applies the new capacity
  set_thread_ident(0, StreamKind::kMain);
  for (int i = 0; i < 50; ++i) {
    instant(kCatCheck, "ev" + std::to_string(i));
  }
  EXPECT_EQ(dropped_events(), 42u);
  const auto events = my_events();
  ASSERT_EQ(events.size(), 8u);
  // The ring keeps the newest events, unrolled oldest-first.
  EXPECT_EQ(events.front().name, "ev42");
  EXPECT_EQ(events.back().name, "ev49");
}

TEST_F(TraceTest, ChromeTraceWriterEmitsWellFormedEvents) {
  begin_span(kCatComm, "all_reduce(\"grid_x\")");  // quote needs escaping
  end_span();
  counter(kCatIntegrity, "sdc_detected", 2.0);
  instant(kCatCheck, "divergence");

  std::ostringstream out;
  write_chrome_trace(out, my_events());
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"B\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"E\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("all_reduce(\\\"grid_x\\\")"), std::string::npos)
      << "quotes inside span names must be escaped";
  // pid = rank, tid 0 = compute stream.
  EXPECT_NE(json.find("\"pid\":0,\"tid\":0"), std::string::npos);
  // Braces and brackets balance (cheap well-formedness proxy).
  long braces = 0, brackets = 0;
  for (char c : json) {
    braces += c == '{' ? 1 : c == '}' ? -1 : 0;
    brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
}

TEST_F(TraceTest, TraceSessionWritesFileOnDestruction) {
  const std::string path = "axonn_test_session.trace.json";
  {
    TraceSession session(path);
    ASSERT_TRUE(session.active());
    EXPECT_TRUE(enabled());
    set_thread_ident(0, StreamKind::kMain);
    SpanGuard span(kCatCompute, "payload");
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "session destructor must write " << path;
  std::stringstream contents;
  contents << in.rdbuf();
  EXPECT_NE(contents.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(contents.str().find("payload"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(TraceTest, InactiveSpanGuardRecordsNothing) {
  set_enabled(false);
  { SpanGuard span(kCatCompute, "off"); }
  set_enabled(true);
  {
    SpanGuard span;  // never opened
  }
  EXPECT_TRUE(my_events().empty());
}

}  // namespace
}  // namespace axonn::obs
