#include "trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {
thread_local std::uint64_t tl_parent = 0;
thread_local std::uint64_t tl_request = 0;
}  // namespace

Tracer::Tracer(bool enabled) : enabled_(enabled) {}

void Tracer::Push(const SpanRecord& record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(record);
}

std::uint64_t Tracer::NowNs() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Tracer::Span::Span(Tracer& tracer, const char* name, std::uint64_t request)
    : tracer_(tracer.Enabled() ? &tracer : nullptr) {
  if (tracer_ == nullptr) return;
  record_.name = name;
  record_.id = tracer_->next_id_.fetch_add(1, std::memory_order_relaxed);
  record_.parent = tl_parent;
  record_.request = request != 0 ? request : tl_request;
  saved_parent_ = tl_parent;
  saved_request_ = tl_request;
  tl_parent = record_.id;
  tl_request = record_.request;
  record_.start_ns = NowNs();
}

Tracer::Span::~Span() {
  if (tracer_ == nullptr) return;
  record_.end_ns = NowNs();
  tl_parent = saved_parent_;
  tl_request = saved_request_;
  tracer_->Push(record_);
}

void Tracer::Record(const char* name, std::uint64_t request,
                    std::uint64_t start_ns, std::uint64_t end_ns) {
  if (!Enabled()) return;
  SpanRecord record;
  record.name = name;
  record.id = next_id_.fetch_add(1, std::memory_order_relaxed);
  record.request = request;
  record.start_ns = start_ns;
  record.end_ns = end_ns;
  Push(record);
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::vector<SpanRecord> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = spans_;
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) { return a.id < b.id; });
  return out;
}

std::vector<double> Tracer::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const SpanRecord& span : Spans()) {
    if (name == span.name) out.push_back(span.DurationMs());
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRecord& span : Spans()) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"request\":%llu,\"start_ns\":%llu,\"end_ns\":%llu}\n",
                 span.name, static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.request),
                 static_cast<unsigned long long>(span.start_ns),
                 static_cast<unsigned long long>(span.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
