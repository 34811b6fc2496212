// In-memory span recorder for the traced run.  A span is a name (plus a
// label such as the session variant or calibration phase), a start, an
// end and the span that caused it; all spans of one op carry the op
// span's id.  Spans go to a per-thread buffer while the run is hot and
// are collected and written once the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 for an op (root) span.
  std::uint64_t op = 0;      ///< Id of the op span this span belongs to.
  const char* name = "";     ///< Static string.
  const char* label = "";    ///< Static string ("" when unlabelled).
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  /// The process-wide log (recording is off until enable(true)).
  static SpanLog& instance();

  void enable(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }
  bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  std::uint64_t next_id() noexcept;
  /// Steady-clock nanoseconds since the log was created.
  static std::int64_t now_ns() noexcept;

  /// Appends to the calling thread's buffer (no-op while disabled).
  void record(const Span& span);

  /// Moves every buffered span out.  Call only while no thread records.
  std::vector<Span> take();

 private:
  SpanLog() = default;
  std::atomic<bool> enabled_{false};
};

/// What the spans of one run say about where op time went.
struct SpanSummary {
  /// Σ over ops of the time their child spans cover ÷ Σ op durations.
  double coverage = 0.0;
  std::uint64_t ops = 0;
  struct Row {
    std::string name;  ///< "name" or "name[label]".
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< Duration minus what child spans cover.
  };
  std::vector<Row> rows;  ///< Sorted by self time, largest first.
};

SpanSummary summarize(const std::vector<Span>& spans);

/// Writes one JSON object per span; returns false on I/O failure.
bool write_spans_jsonl(const std::string& path, const std::vector<Span>& spans);

/// Records the enclosing scope as one span when the log is enabled.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, const char* label, std::uint64_t parent,
             std::uint64_t op) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const noexcept { return span_.id; }

 private:
  Span span_;
  bool on_;
};

}  // namespace perfbench
