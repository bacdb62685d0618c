// Host-time spans and per-chunk counter snapshots for the traced run.
//
// Spans are recorded from the benchmark's own code around its calls into
// each layer (setup, every run_until chunk, every client call it makes,
// finish). They stay in memory and are written once, when the run ends, as
// Chrome trace-event JSON (load in Perfetto or chrome://tracing). Counter
// snapshots taken at every chunk boundary form a table with one row per
// boundary and one column per per-layer counter.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Ordered name -> value list: the per-layer counters of one snapshot.
using Counters = std::vector<std::pair<std::string, double>>;

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  Tracer() : origin_(Clock::now()) {}

  /// RAII span; nested spans record their parent, so a layer's self time is
  /// its duration minus its children's.
  class Span {
   public:
    Span(Tracer* tracer, const char* name) : tracer_(tracer) {
      if (tracer_ != nullptr) index_ = tracer_->open(name);
    }
    ~Span() {
      if (tracer_ != nullptr) tracer_->close(index_);
    }
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;
    std::size_t index_ = 0;
  };

  /// Records a counter row at a chunk boundary (sim time in seconds).
  void snapshot(double sim_s, Counters counters) {
    rows_.push_back({sim_s, std::move(counters)});
  }

  /// Total duration (seconds) and count of the closed spans named `name`.
  [[nodiscard]] std::pair<double, std::uint64_t> total(const std::string& name) const {
    for (const Total& t : totals_) {
      if (name == t.name) return {static_cast<double>(t.ns) * 1e-9, t.count};
    }
    return {0.0, 0};
  }

  /// Writes the spans as Chrome trace-event JSON; false on I/O failure.
  bool write_chrome_trace(const std::string& path) const;
  /// Writes the counter rows as CSV; false on I/O failure.
  bool write_counter_table(const std::string& path) const;

  [[nodiscard]] std::size_t span_count() const { return spans_.size(); }

 private:
  static constexpr std::size_t kNoParent = static_cast<std::size_t>(-1);

  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    std::size_t parent;
  };
  struct Total {
    const char* name;
    std::int64_t ns;
    std::uint64_t count;
  };
  struct Row {
    double sim_s;
    Counters counters;
  };

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
  }
  std::size_t open(const char* name) {
    spans_.push_back({name, now_ns(), -1, open_});
    open_ = spans_.size() - 1;
    return open_;
  }
  void close(std::size_t index) {
    Record& r = spans_[index];
    r.end_ns = now_ns();
    open_ = r.parent;
    for (Total& t : totals_) {
      if (std::strcmp(t.name, r.name) == 0) {
        t.ns += r.end_ns - r.start_ns;
        ++t.count;
        return;
      }
    }
    totals_.push_back({r.name, r.end_ns - r.start_ns, 1});
  }

  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::size_t open_ = kNoParent;
  std::vector<Total> totals_;
  std::vector<Row> rows_;
};

}  // namespace perfbench
