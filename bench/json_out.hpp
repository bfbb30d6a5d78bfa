#pragma once

// Machine-readable bench output: every bench binary accepts `--json <path>`
// and writes a BENCH_*.json with its data series so the perf trajectory can
// be tracked across PRs. Schema:
//
//   {"benchmark": "<name>",
//    "flavor": {"_compiler": "...", "_build_type": "...", "isa": "...",
//               "native_arch": "...", "_hw_threads": "..."},
//    "series": [{"name": "...", "units": "...",
//                "points": [{"x": ..., "y": ...}, ...]}, ...]}
//
// "flavor" (optional) stamps the build/host configuration the numbers were
// measured under. tools/bench_compare.py refuses to diff files whose flavors
// disagree — a portable-tier smoke run versus a native-arch run is not a
// regression, it is a different machine. Keys with a leading underscore are
// informational only and excluded from that comparison; every file carries
// "_compiler", the compiler that built the binary, and "_build_type", the
// CMake build type it was built as (the reference kernel's speed moves ~15x
// between RelWithDebInfo and Release).
//
// Human-readable tables on stdout are unchanged; JSON is additive.

#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

namespace axonn::bench {

class JsonSeriesWriter {
 public:
  explicit JsonSeriesWriter(std::string benchmark_name)
      : benchmark_name_(std::move(benchmark_name)) {
    set_flavor("_compiler", compiler_id());
    set_flavor("_build_type", AXONN_BENCH_BUILD_TYPE);
  }

  void add(const std::string& series, double x, double y,
           const std::string& units = "s") {
    points_.push_back(Point{series, units, x, y});
  }

  /// Adds (or overwrites) one build-flavor key. Prefix the key with '_' for
  /// host facts that should not gate comparisons (core counts, bf16 mode).
  void set_flavor(const std::string& key, const std::string& value) {
    for (auto& kv : flavor_) {
      if (kv.first == key) {
        kv.second = value;
        return;
      }
    }
    flavor_.emplace_back(key, value);
  }

  bool empty() const { return points_.empty(); }

  /// Writes the collected series; returns false (after a stderr note) if
  /// the file cannot be written.
  bool write_file(const std::string& path) const {
    std::ofstream out(path);
    if (!out) {
      std::cerr << "cannot write bench JSON to " << path << "\n";
      return false;
    }
    out << "{\"benchmark\":" << quoted(benchmark_name_);
    if (!flavor_.empty()) {
      out << ",\"flavor\":{";
      for (std::size_t i = 0; i < flavor_.size(); ++i) {
        if (i) out << ",";
        out << quoted(flavor_[i].first) << ":" << quoted(flavor_[i].second);
      }
      out << "}";
    }
    out << ",\"series\":[";
    // Group points by (series, units) preserving first-seen order.
    std::vector<std::size_t> order;
    for (std::size_t i = 0; i < points_.size(); ++i) {
      bool seen = false;
      for (std::size_t j : order) {
        if (points_[j].series == points_[i].series) seen = true;
      }
      if (!seen) order.push_back(i);
    }
    for (std::size_t s = 0; s < order.size(); ++s) {
      const Point& head = points_[order[s]];
      if (s) out << ",";
      out << "\n{\"name\":" << quoted(head.series)
          << ",\"units\":" << quoted(head.units) << ",\"points\":[";
      bool first = true;
      for (const Point& p : points_) {
        if (p.series != head.series) continue;
        if (!first) out << ",";
        first = false;
        out << "{\"x\":" << p.x << ",\"y\":" << p.y << "}";
      }
      out << "]}";
    }
    out << "\n]}\n";
    return out.good();
  }

 private:
  struct Point {
    std::string series;
    std::string units;
    double x = 0;
    double y = 0;
  };

  static std::string compiler_id() {
#if defined(__clang__)
    return "clang " + std::to_string(__clang_major__) + "." +
           std::to_string(__clang_minor__) + "." +
           std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
    return "gcc " + std::to_string(__GNUC__) + "." +
           std::to_string(__GNUC_MINOR__) + "." +
           std::to_string(__GNUC_PATCHLEVEL__);
#else
    return "unknown";
#endif
  }

  static std::string quoted(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') q += '\\';
      q += c;
    }
    q += '"';
    return q;
  }

  std::string benchmark_name_;
  std::vector<std::pair<std::string, std::string>> flavor_;
  std::vector<Point> points_;
};

/// Removes `--json <path>` from argv (so later arg parsers never see it)
/// and returns the path, or "" when absent.
inline std::string extract_json_path(int& argc, char** argv) {
  std::string path;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      path = argv[i + 1];
      ++i;
      continue;
    }
    argv[out++] = argv[i];
  }
  argc = out;
  return path;
}

}  // namespace axonn::bench
