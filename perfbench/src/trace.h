#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

// In-memory span recorder for the traced replay. One Tracer belongs to the
// single replay thread; spans nest through an explicit stack and share the
// request id of the replayed request. Nothing is written until WriteJsonl.

#include <string>
#include <vector>

#include "logic.h"

namespace perfbench {

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  /// Starts a span under the innermost open one; returns its index.
  size_t Begin(const char* name);
  /// Closes span `index` (must be the innermost open span).
  void End(size_t index);

  void set_request(uint64_t request) { request_ = request; }
  const std::vector<Span>& spans() const { return spans_; }
  double DurationUs(size_t index) const {
    return spans_[index].end_us - spans_[index].start_us;
  }

  /// One JSON object per line: name, request, parent, start_us, end_us,
  /// self_us.
  bool WriteJsonl(const std::string& path) const;

 private:
  double NowUs() const;

  Clock::time_point origin_;
  uint64_t request_ = 0;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a null tracer records nothing (the untraced replay).
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() { Close(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration in microseconds (0 when
  /// untraced).
  double Close();

 private:
  Tracer* tracer_;
  size_t index_;
  bool closed_ = false;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
