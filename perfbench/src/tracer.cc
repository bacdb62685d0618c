#include "tracer.h"

#include <cstdio>
#include <fstream>

namespace perfbench {

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  // Complete ("X") events on one thread; viewers nest them by time. The
  // parent index rides in args so tools can compute self time exactly.
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[256];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& r = spans_[i];
    const std::int64_t end = r.end_ns >= 0 ? r.end_ns : r.start_ns;
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%lld}}%s\n",
                  r.name, static_cast<double>(r.start_ns) / 1e3,
                  static_cast<double>(end - r.start_ns) / 1e3, i,
                  r.parent == kNoParent ? -1LL : static_cast<long long>(r.parent),
                  i + 1 < spans_.size() ? "," : "");
    os << buf;
  }
  os << "]}\n";
  return static_cast<bool>(os);
}

bool Tracer::write_counter_table(const std::string& path) const {
  std::ofstream os(path);
  if (!os) return false;
  if (rows_.empty()) return static_cast<bool>(os);
  os << "sim_s";
  for (const auto& [name, value] : rows_.front().counters) os << ',' << name;
  os << '\n';
  char buf[64];
  for (const Row& row : rows_) {
    std::snprintf(buf, sizeof buf, "%.3f", row.sim_s);
    os << buf;
    for (const auto& [name, value] : row.counters) {
      std::snprintf(buf, sizeof buf, "%.10g", value);
      os << ',' << buf;
    }
    os << '\n';
  }
  return static_cast<bool>(os);
}

}  // namespace perfbench
