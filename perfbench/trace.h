// In-memory span recorder for the traced runs. Spans are recorded only from
// the benchmark's own code, around its calls into the program's public
// functions; nothing inside the program is instrumented. Each span carries
// its name, start and end, the span that was open on the same thread when
// it began (its parent) and a request id shared by every span of one
// operation. Spans stay in memory, in one mutex-guarded buffer, until
// Write() dumps them as JSON lines.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";  // string literal
  std::uint64_t id = 0;   // 1-based; 0 = none
  std::uint64_t parent = 0;
  std::uint64_t request = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;

  double DurationMs() const { return static_cast<double>(end_ns - start_ns) / 1e6; }
};

class Tracer {
 public:
  // A disabled tracer records nothing and its spans cost one branch.
  explicit Tracer(bool enabled);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool Enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void SetEnabled(bool enabled) {
    enabled_.store(enabled, std::memory_order_relaxed);
  }

  // RAII span. `request` 0 inherits the enclosing span's request id.
  class Span {
   public:
    Span(Tracer& tracer, const char* name, std::uint64_t request = 0);
    ~Span();
    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

   private:
    Tracer* tracer_;  // null when disabled
    SpanRecord record_;
    std::uint64_t saved_parent_ = 0;
    std::uint64_t saved_request_ = 0;
  };

  // Records a finished span whose interval was measured elsewhere (for
  // example a request timed by the load client on another clock edge).
  void Record(const char* name, std::uint64_t request, std::uint64_t start_ns,
              std::uint64_t end_ns);

  // Every span recorded so far, by id.
  std::vector<SpanRecord> Spans() const;

  // Durations (ms) of every span called `name`.
  std::vector<double> DurationsMs(const std::string& name) const;

  // Writes one JSON object per span to `path`. Returns false on I/O error.
  bool Write(const std::string& path) const;

  static std::uint64_t NowNs();

 private:
  void Push(const SpanRecord& record);

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // mu_
};

}  // namespace perfbench
