// In-memory span log of the traced run. The benchmark opens a span around
// every call it makes into a simulator layer's public API (workload -> set-up
// or pass/point -> layer call), keeps the spans in memory, derives per-layer
// self time from them, and writes them at exit as trace-event JSON that
// Perfetto and chrome://tracing open, in the same format as the benches'
// --trace-out. A disabled log records nothing and reads no clock.
#pragma once

#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hpp"

namespace perfbench {

class SpanLog {
public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  [[nodiscard]] bool enabled() const { return enabled_; }

  // RAII span: opens on construction, closes on destruction. The parent is
  // the innermost span open at construction.
  class Scope {
  public:
    Scope(SpanLog& log, std::string name) : log_(log.enabled_ ? &log : nullptr) {
      if (log_ != nullptr) index_ = log_->open(std::move(name));
    }
    ~Scope() {
      if (log_ != nullptr) log_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    SpanLog* log_;
    std::size_t index_ = 0;
  };

  // Number of spans recorded so far; a [mark, size()) range is every span
  // opened after the mark was taken.
  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  // Self time per span name over the spans in [first, last): each span's
  // duration minus the time its direct children cover. Children run on the
  // benchmark's one thread, so they never overlap and a sum is exact.
  [[nodiscard]] std::map<std::string, double> self_seconds(std::size_t first,
                                                           std::size_t last) const {
    std::map<std::string, double> self;
    for (std::size_t i = first; i < last; ++i) self[spans_[i].name] += spans_[i].duration();
    for (std::size_t i = first; i < last; ++i) {
      const int parent = spans_[i].parent;
      if (parent >= static_cast<int>(first))
        self[spans_[static_cast<std::size_t>(parent)].name] -= spans_[i].duration();
    }
    return self;
  }

  // Writes every span as a complete ("X") trace event; args carry the parent
  // span's name. Returns false on an I/O failure.
  bool write_trace_json(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"traceEvents\":[";
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,\"args\":{\"name\":"
           "\"perfbench\"}}";
    char buf[96];
    for (const Span& s : spans_) {
      std::snprintf(buf, sizeof(buf), ",\"ts\":%.3f,\"dur\":%.3f", s.start_s * 1e6,
                    s.duration() * 1e6);
      out << ",{\"name\":" << switchml::json_quote(s.name)
          << ",\"ph\":\"X\",\"pid\":1,\"tid\":1" << buf << ",\"cat\":"
          << switchml::json_quote(s.name.substr(0, s.name.find('.'))) << ",\"args\":{\"parent\":"
          << switchml::json_quote(s.parent < 0 ? std::string{}
                                               : spans_[static_cast<std::size_t>(s.parent)].name)
          << "}}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return static_cast<bool>(out);
  }

private:
  using Clock = std::chrono::steady_clock;

  struct Span {
    std::string name;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
    [[nodiscard]] double duration() const { return end_s - start_s; }
  };

  std::size_t open(std::string name) {
    const int parent = open_.empty() ? -1 : static_cast<int>(open_.back());
    spans_.push_back(Span{std::move(name), parent, now_s(), 0.0});
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }
  void close(std::size_t index) {
    spans_[index].end_s = now_s();
    open_.pop_back();
  }
  [[nodiscard]] double now_s() const {
    return std::chrono::duration<double>(Clock::now() - origin_).count();
  }

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<std::size_t> open_;
};

} // namespace perfbench
