#include "axonn/base/arena.hpp"

#include <array>
#include <atomic>
#include <cassert>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "axonn/base/error.hpp"
#include "axonn/base/metrics.hpp"
#include "axonn/base/trace.hpp"

namespace axonn::mem {
namespace {

/// One cache line in front of every payload. The payload pointer handed out
/// is base + kHeaderBytes, so kCacheLineBytes alignment is preserved.
constexpr std::size_t kHeaderBytes = kCacheLineBytes;

constexpr std::uint64_t kMagic = 0xA40AB10CA7ED11EFull;

struct Header {
  std::uint64_t magic;
  std::uint64_t bytes;   ///< requested payload bytes (accounting unit)
  std::uint8_t tag;
  std::uint8_t tracked;  ///< accounting was recorded at allocation
};
static_assert(sizeof(Header) <= kHeaderBytes);

struct TagCell {
  std::atomic<std::uint64_t> live{0};
  std::atomic<std::uint64_t> hwm{0};
  std::atomic<std::uint64_t> allocs{0};
  std::atomic<std::uint64_t> alloc_bytes{0};
};

TagCell g_tag_cells[kNumTags];
std::atomic<std::uint64_t> g_total_live{0};
std::atomic<std::uint64_t> g_total_hwm{0};

thread_local Tag t_tag = Tag::kUntagged;

void raise_hwm(std::atomic<std::uint64_t>& hwm, std::uint64_t candidate) {
  std::uint64_t cur = hwm.load(std::memory_order_relaxed);
  while (candidate > cur &&
         !hwm.compare_exchange_weak(cur, candidate,
                                    std::memory_order_relaxed)) {
  }
}

Mode initial_mode() {
  const char* env = std::getenv("AXONN_MEM");
  if (env == nullptr || *env == '\0') return Mode::kTrack;
  return parse_mode(env);
}

std::atomic<Mode>& mode_cell() {
  static std::atomic<Mode> m{initial_mode()};
  return m;
}

bool trace_timeline_enabled() {
  static const bool on = [] {
    const char* env = std::getenv("AXONN_MEM_TRACE");
    return env != nullptr && *env != '\0' && std::strcmp(env, "0") != 0;
  }();
  return on;
}

// ---------------------------------------------------------------------------
// Metrics mirroring
// ---------------------------------------------------------------------------

obs::metrics::Histogram& alloc_histogram(Tag tag) {
  static std::array<obs::metrics::Histogram, kNumTags>* hists = [] {
    auto make = [](Tag t) {
      return obs::metrics::Histogram(
          std::string("mem.") + to_string(t) + ".alloc_bytes",
          std::string("log2 allocation-size distribution of the '") +
              to_string(t) + "' arena tag, bytes per allocation");
    };
    return new std::array<obs::metrics::Histogram, kNumTags>{
        make(Tag::kUntagged),     make(Tag::kWeights),
        make(Tag::kActivations),  make(Tag::kGrads),
        make(Tag::kAdam),         make(Tag::kPackedPanels),
        make(Tag::kCommBuffers),  make(Tag::kJournal)};
  }();
  return (*hists)[static_cast<std::size_t>(tag)];
}

void ensure_export_hook() {
  static const bool registered = [] {
    obs::metrics::add_export_hook(&publish_metrics);
    return true;
  }();
  (void)registered;
}

// ---------------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------------

void account_alloc(Tag tag, std::size_t bytes) {
  ensure_export_hook();
  TagCell& cell = g_tag_cells[static_cast<std::size_t>(tag)];
  const std::uint64_t live =
      cell.live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_hwm(cell.hwm, live);
  cell.allocs.fetch_add(1, std::memory_order_relaxed);
  cell.alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  const std::uint64_t total =
      g_total_live.fetch_add(bytes, std::memory_order_relaxed) + bytes;
  raise_hwm(g_total_hwm, total);
  alloc_histogram(tag).observe(static_cast<double>(bytes));
  if (trace_timeline_enabled() && obs::enabled()) {
    obs::counter("mem", std::string("live.") + to_string(tag),
                 static_cast<double>(live));
  }
}

void account_free(Tag tag, std::size_t bytes) noexcept {
  TagCell& cell = g_tag_cells[static_cast<std::size_t>(tag)];
  const std::uint64_t live =
      cell.live.fetch_sub(bytes, std::memory_order_relaxed) - bytes;
  g_total_live.fetch_sub(bytes, std::memory_order_relaxed);
  if (trace_timeline_enabled() && obs::enabled()) {
    obs::counter("mem", std::string("live.") + to_string(tag),
                 static_cast<double>(live));
  }
}

}  // namespace

const char* to_string(Tag tag) {
  switch (tag) {
    case Tag::kUntagged: return "untagged";
    case Tag::kWeights: return "weights";
    case Tag::kActivations: return "activations";
    case Tag::kGrads: return "grads";
    case Tag::kAdam: return "adam";
    case Tag::kPackedPanels: return "packed_panels";
    case Tag::kCommBuffers: return "comm_buffers";
    case Tag::kJournal: return "journal";
  }
  return "?";
}

const char* to_string(Mode mode) {
  switch (mode) {
    case Mode::kOff: return "off";
    case Mode::kTrack: return "track";
  }
  return "?";
}

Mode parse_mode(std::string_view text) {
  if (text == "off") return Mode::kOff;
  if (text == "track") return Mode::kTrack;
  throw Error("AXONN_MEM: unknown mode '" + std::string(text) +
              "' (expected off|track)");
}

Mode mode() { return mode_cell().load(std::memory_order_relaxed); }

void set_mode(Mode m) { mode_cell().store(m, std::memory_order_relaxed); }

Tag current_tag() { return t_tag; }

ArenaScope::ArenaScope(Tag tag) : prev_(t_tag) { t_tag = tag; }

ArenaScope::~ArenaScope() { t_tag = prev_; }

void* allocate(std::size_t bytes) {
  const Tag tag = t_tag;
  const bool tracked = mode() != Mode::kOff;
  void* base =
      ::operator new(kHeaderBytes + bytes, std::align_val_t(kCacheLineBytes));
  Header* h = static_cast<Header*>(base);
  h->magic = kMagic;
  h->bytes = bytes;
  h->tag = static_cast<std::uint8_t>(tag);
  h->tracked = tracked ? 1 : 0;
  if (tracked) account_alloc(tag, bytes);
  return static_cast<char*>(base) + kHeaderBytes;
}

void deallocate(void* p) noexcept {
  if (p == nullptr) return;
  void* base = static_cast<char*>(p) - kHeaderBytes;
  const Header* h = static_cast<const Header*>(base);
  assert(h->magic == kMagic && "mem::deallocate on a foreign pointer");
  if (h->tracked) {
    account_free(static_cast<Tag>(h->tag), static_cast<std::size_t>(h->bytes));
  }
  ::operator delete(base, std::align_val_t(kCacheLineBytes));
}

TagStats tag_stats(Tag tag) {
  const TagCell& cell = g_tag_cells[static_cast<std::size_t>(tag)];
  TagStats s;
  s.live_bytes = cell.live.load(std::memory_order_relaxed);
  s.hwm_bytes = cell.hwm.load(std::memory_order_relaxed);
  s.allocs = cell.allocs.load(std::memory_order_relaxed);
  s.alloc_bytes = cell.alloc_bytes.load(std::memory_order_relaxed);
  return s;
}

std::uint64_t total_live_bytes() {
  return g_total_live.load(std::memory_order_relaxed);
}

std::uint64_t total_hwm_bytes() {
  return g_total_hwm.load(std::memory_order_relaxed);
}

void reset_high_water_marks() {
  for (TagCell& cell : g_tag_cells) {
    cell.hwm.store(cell.live.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
  }
  g_total_hwm.store(g_total_live.load(std::memory_order_relaxed),
                    std::memory_order_relaxed);
}

ProcessMemory process_memory() {
  ProcessMemory pm;
  std::ifstream status("/proc/self/status");
  if (!status) return pm;
  std::string line;
  while (std::getline(status, line)) {
    const auto parse_kb = [&line](const char* key) -> std::uint64_t {
      const std::size_t len = std::strlen(key);
      if (line.compare(0, len, key) != 0) return 0;
      return std::strtoull(line.c_str() + len, nullptr, 10) * 1024;
    };
    if (const std::uint64_t rss = parse_kb("VmRSS:")) pm.rss_bytes = rss;
    if (const std::uint64_t hwm = parse_kb("VmHWM:")) pm.vm_hwm_bytes = hwm;
  }
  return pm;
}

void publish_metrics() {
  using obs::metrics::Gauge;
  struct TagGauges {
    Gauge live;
    Gauge hwm;
  };
  static std::array<TagGauges, kNumTags>* gauges = [] {
    auto make = [](Tag t) {
      return TagGauges{
          Gauge(std::string("mem.") + to_string(t) + ".live_bytes",
                std::string("bytes currently allocated under the '") +
                    to_string(t) + "' arena tag"),
          Gauge(std::string("mem.") + to_string(t) + ".hwm_bytes",
                std::string("high-water mark of '") + to_string(t) +
                    "' live bytes since process start (or the last reset)")};
    };
    return new std::array<TagGauges, kNumTags>{
        make(Tag::kUntagged),     make(Tag::kWeights),
        make(Tag::kActivations),  make(Tag::kGrads),
        make(Tag::kAdam),         make(Tag::kPackedPanels),
        make(Tag::kCommBuffers),  make(Tag::kJournal)};
  }();
  for (std::size_t t = 0; t < kNumTags; ++t) {
    const TagStats s = tag_stats(static_cast<Tag>(t));
    (*gauges)[t].live.set_forced(static_cast<double>(s.live_bytes));
    (*gauges)[t].hwm.set_forced(static_cast<double>(s.hwm_bytes));
  }
  static Gauge total_live("mem.total.live_bytes",
                          "bytes currently allocated across all arena tags");
  static Gauge total_hwm(
      "mem.total.hwm_bytes",
      "high-water mark of total tracked live bytes (true HWM of the sum)");
  total_live.set_forced(static_cast<double>(total_live_bytes()));
  total_hwm.set_forced(static_cast<double>(total_hwm_bytes()));

  const ProcessMemory pm = process_memory();
  static Gauge rss("mem.process.rss_bytes",
                   "kernel VmRSS of the whole process (0 when /proc is "
                   "unavailable)");
  static Gauge vm_hwm("mem.process.vm_hwm_bytes",
                      "kernel VmHWM (peak RSS) of the whole process");
  if (pm.rss_bytes != 0) rss.set_forced(static_cast<double>(pm.rss_bytes));
  if (pm.vm_hwm_bytes != 0) {
    vm_hwm.set_forced(static_cast<double>(pm.vm_hwm_bytes));
  }
}

}  // namespace axonn::mem
