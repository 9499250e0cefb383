// In-memory spans for the benchmark's traced run. Each thread owns a
// SpanLog (no locking on the hot path); logs are merged and written
// out when the run ends. A span id encodes its log and position, so
// ids stay unique across threads without coordination.

#ifndef KBFORGE_PERFBENCH_TRACE_H_
#define KBFORGE_PERFBENCH_TRACE_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< id of the request's root span
  const char* name = ""; ///< static string
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(uint32_t log_id) : log_id_(log_id) {
    spans_.reserve(1 << 16);
  }

  /// Records a finished span and returns its id. A root span (parent
  /// 0) is its own request; a child inherits its parent's request.
  uint64_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint64_t parent = 0, uint64_t request = 0) {
    Span s;
    s.id = (static_cast<uint64_t>(log_id_) << 40) | (spans_.size() + 1);
    s.parent = parent;
    s.request = parent == 0 ? s.id : request;
    s.name = name;
    s.start_ns = start_ns;
    s.end_ns = end_ns;
    spans_.push_back(s);
    return s.id;
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t log_id_;
  std::vector<Span> spans_;
};

/// Per span name: count, total duration and self time (duration minus
/// the durations of its children, which for replayed layer calls run
/// after their parent request, so they are subtracted by duration).
struct SelfTime {
  uint64_t count = 0;
  double total_us = 0;
  double self_us = 0;
};

inline std::map<std::string, SelfTime> ComputeSelfTimes(
    const std::vector<Span>& spans) {
  std::map<uint64_t, double> child_us;
  for (const Span& s : spans) {
    if (s.parent != 0) child_us[s.parent] += (s.end_ns - s.start_ns) / 1e3;
  }
  std::map<std::string, SelfTime> out;
  for (const Span& s : spans) {
    SelfTime& t = out[s.name];
    double us = (s.end_ns - s.start_ns) / 1e3;
    ++t.count;
    t.total_us += us;
    auto it = child_us.find(s.id);
    t.self_us += us - (it == child_us.end() ? 0.0 : it->second);
  }
  return out;
}

/// Writes spans as tab-separated lines: id, parent, request, name,
/// start (µs from the first span), duration (µs).
inline bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  for (const Span& s : spans) origin = std::min(origin, s.start_ns);
  std::fprintf(f, "id\tparent\trequest\tname\tstart_us\tdur_us\n");
  for (const Span& s : spans) {
    std::fprintf(f, "%llu\t%llu\t%llu\t%s\t%.3f\t%.3f\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.name,
                 (s.start_ns - origin) / 1e3, (s.end_ns - s.start_ns) / 1e3);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#endif  // KBFORGE_PERFBENCH_TRACE_H_
