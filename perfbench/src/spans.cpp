#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

std::atomic<std::uint64_t> g_next_id{1};

// Per-thread buffers, owned here so a pool worker's buffer outlives any
// one run phase; the mutex guards only the list, never the hot append.
std::mutex g_buffers_mu;
std::vector<std::unique_ptr<std::vector<Span>>> g_buffers;
thread_local std::vector<Span>* t_buffer = nullptr;

std::vector<Span>& thread_buffer() {
  if (t_buffer == nullptr) {
    auto owned = std::make_unique<std::vector<Span>>();
    owned->reserve(4096);
    t_buffer = owned.get();
    std::lock_guard<std::mutex> lock(g_buffers_mu);
    g_buffers.push_back(std::move(owned));
  }
  return *t_buffer;
}

/// Length of the union of [start, end) intervals, clipped to [lo, hi).
std::int64_t covered_ns(std::vector<std::pair<std::int64_t, std::int64_t>>& iv,
                        std::int64_t lo, std::int64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [s, e] : iv) {
    s = std::max(s, cursor);
    e = std::min(e, hi);
    if (e > s) {
      covered += e - s;
      cursor = e;
    }
  }
  return covered;
}

}  // namespace

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

std::uint64_t SpanLog::next_id() noexcept {
  return g_next_id.fetch_add(1, std::memory_order_relaxed);
}

std::int64_t SpanLog::now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kOrigin)
      .count();
}

void SpanLog::record(const Span& span) {
  if (!enabled()) return;
  thread_buffer().push_back(span);
}

std::vector<Span> SpanLog::take() {
  std::vector<Span> all;
  std::lock_guard<std::mutex> lock(g_buffers_mu);
  for (auto& buffer : g_buffers) {
    all.insert(all.end(), buffer->begin(), buffer->end());
    buffer->clear();
  }
  std::sort(all.begin(), all.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return all;
}

ScopedSpan::ScopedSpan(const char* name, const char* label,
                       std::uint64_t parent, std::uint64_t op) noexcept
    : on_(SpanLog::instance().enabled()) {
  if (!on_) return;
  span_.id = SpanLog::instance().next_id();
  span_.parent = parent;
  span_.op = op != 0 ? op : span_.id;
  span_.name = name;
  span_.label = label;
  span_.start_ns = SpanLog::now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!on_) return;
  span_.end_ns = SpanLog::now_ns();
  SpanLog::instance().record(span_);
}

SpanSummary summarize(const std::vector<Span>& spans) {
  std::unordered_map<std::uint64_t,
                     std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans) {
    if (s.parent != 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  SpanSummary summary;
  std::map<std::string, SpanSummary::Row> rows;
  double op_ns = 0.0;
  double op_covered_ns = 0.0;
  for (const Span& s : spans) {
    const std::int64_t duration = s.end_ns - s.start_ns;
    std::int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      covered = covered_ns(it->second, s.start_ns, s.end_ns);
    }
    if (s.parent == 0) {
      ++summary.ops;
      op_ns += static_cast<double>(duration);
      op_covered_ns += static_cast<double>(covered);
    }
    std::string key = s.name;
    if (s.label[0] != '\0') key += std::string("[") + s.label + "]";
    SpanSummary::Row& row = rows[key];
    row.name = key;
    ++row.count;
    row.total_ms += static_cast<double>(duration) * 1e-6;
    row.self_ms += static_cast<double>(duration - covered) * 1e-6;
  }
  summary.coverage = op_ns > 0.0 ? op_covered_ns / op_ns : 0.0;
  for (auto& [key, row] : rows) summary.rows.push_back(row);
  std::sort(summary.rows.begin(), summary.rows.end(),
            [](const auto& a, const auto& b) { return a.self_ms > b.self_ms; });
  return summary;
}

bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"op\":%llu,\"name\":\"%s\","
                 "\"label\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.op), s.name, s.label,
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
