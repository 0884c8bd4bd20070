#include "trace.h"

#include <cstdio>

namespace perfbench {

double Tracer::NowUs() const {
  return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
      .count();
}

size_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.request = request_;
  span.parent = open_.empty() ? -1 : static_cast<int32_t>(open_.back());
  span.start_us = NowUs();
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  return spans_.size() - 1;
}

void Tracer::End(size_t index) {
  spans_[index].end_us = NowUs();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::vector<double> self = SelfTimesUs(spans_);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"request\":%llu,\"parent\":%d,"
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f}\n",
                 s.name, static_cast<unsigned long long>(s.request), s.parent,
                 s.start_us, s.end_us, self[i]);
  }
  return std::fclose(f) == 0;
}

double ScopedSpan::Close() {
  if (closed_ || tracer_ == nullptr) return 0.0;
  closed_ = true;
  tracer_->End(index_);
  return tracer_->DurationUs(index_);
}

}  // namespace perfbench
