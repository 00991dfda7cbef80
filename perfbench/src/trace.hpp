#pragma once

// Benchmark-side spans around each call into a library layer. Spans live in
// memory (one vector per recording thread, merged at the end) and are
// written once, at exit, as Chrome Trace Event JSON, which Perfetto and
// chrome://tracing open directly. When the tracer is off a Span costs one
// branch.
//
// A span's layer is its name up to the first '.', so "opt.optimize" belongs
// to layer "opt". Spans of one round or one request carry the same id.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ms_since(Clock::time_point t0, Clock::time_point t) {
  return std::chrono::duration<double, std::milli>(t - t0).count();
}

struct SpanRec {
  const char* name = "";
  uint64_t id = 0;      // round or request id
  int64_t parent = -1;  // index into the same thread's span list
  double start_ms = 0, end_ms = 0;
};

class Tracer {
public:
  explicit Tracer(Clock::time_point t0) : t0_(t0) {}

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  double now_ms() const { return ms_since(t0_, Clock::now()); }

  // Opens a span on the calling thread; returns its handle (or -1 when the
  // tracer or this span is off).
  int64_t open(const char* name, uint64_t id, bool on = true) {
    if (!on || !enabled()) return -1;
    Local& l = local();
    const int64_t idx = static_cast<int64_t>(l.spans.size());
    l.spans.push_back({name, id, l.stack.empty() ? -1 : l.stack.back(), now_ms(), 0});
    l.stack.push_back(idx);
    return idx;
  }
  void close(int64_t h) {
    if (h < 0) return;
    Local& l = local();
    l.spans[static_cast<size_t>(h)].end_ms = now_ms();
    l.stack.pop_back();
  }
  // Records an already-finished span with explicit times (ms since t0).
  // Returns its handle, usable as `parent` for further add() calls.
  int64_t add(const char* name, uint64_t id, double start_ms, double end_ms,
              int64_t parent = -1) {
    if (!enabled()) return -1;
    Local& l = local();
    l.spans.push_back({name, id, parent, start_ms, end_ms});
    return static_cast<int64_t>(l.spans.size()) - 1;
  }

  // Per-layer self time (ms) over every recorded span.
  std::map<std::string, double> layer_self_ms() const {
    std::map<std::string, double> out;
    std::lock_guard lk(mu_);
    for (const auto& l : threads_) {
      std::vector<std::vector<Interval>> kids(l->spans.size());
      for (const auto& s : l->spans) {
        if (s.parent >= 0) kids[static_cast<size_t>(s.parent)].push_back({s.start_ms, s.end_ms});
      }
      for (size_t i = 0; i < l->spans.size(); ++i) {
        const SpanRec& s = l->spans[i];
        out[layer_of(s.name)] += self_time(s.start_ms, s.end_ms, kids[i]);
      }
    }
    return out;
  }

  size_t span_count() const {
    std::lock_guard lk(mu_);
    size_t n = 0;
    for (const auto& l : threads_) n += l->spans.size();
    return n;
  }

  // Chrome Trace Event JSON: one complete ("X") event per span, microsecond
  // timestamps, one tid per recording thread.
  bool write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    if (!os) return false;
    os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    bool first = true;
    std::lock_guard lk(mu_);
    for (size_t t = 0; t < threads_.size(); ++t) {
      for (const auto& s : threads_[t]->spans) {
        os << (first ? "\n" : ",\n") << "{\"name\":\"" << s.name << "\",\"cat\":\""
           << layer_of(s.name) << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t + 1
           << ",\"ts\":" << s.start_ms * 1e3 << ",\"dur\":" << (s.end_ms - s.start_ms) * 1e3
           << ",\"args\":{\"id\":" << s.id << "}}";
        first = false;
      }
    }
    os << "\n]}\n";
    return static_cast<bool>(os);
  }

  static std::string layer_of(const char* name) {
    const std::string s(name);
    return s.substr(0, s.find('.'));
  }

private:
  struct Local {
    std::vector<SpanRec> spans;
    std::vector<int64_t> stack;
  };
  Local& local() {
    thread_local Local* mine = nullptr;
    thread_local const Tracer* owner = nullptr;
    if (owner != this) {
      std::lock_guard lk(mu_);
      threads_.push_back(std::make_unique<Local>());
      mine = threads_.back().get();
      owner = this;
    }
    return *mine;
  }

  Clock::time_point t0_;
  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  // guards threads_ (the list, not each thread's spans)
  std::vector<std::unique_ptr<Local>> threads_;
};

// RAII span on the calling thread.
class Span {
public:
  Span(Tracer& t, const char* name, uint64_t id, bool on = true) : t_(t), h_(t.open(name, id, on)) {}
  ~Span() { t_.close(h_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

private:
  Tracer& t_;
  int64_t h_;
};

}  // namespace perfbench
