// trace.h -- the benchmark's span recorder for traced runs.
//
// Spans are recorded in the benchmark's own code around each call into a
// program layer (the layers are named after src/ modules: surface,
// octree, plan, born, epol, fused, serve, mpi, dock). Each span carries
// its parent (the span open on the same thread when it started) and a
// request id, so the spans of one served request group together. Spans
// stay in memory and are written out once, at the end of the run, as a
// Chrome trace-event file. Self time of a span is its duration minus the
// part of it its children cover.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  std::uint64_t request = 0;
  const char* layer = "";
  const char* name = "";
  double t0 = 0.0;
  double t1 = 0.0;
  int thread = 0;
};

class Tracer {
 public:
  /// Recording is off until enabled; a disabled tracer's scopes cost one
  /// branch.
  void enable() { enabled_.store(true); }
  void disable() { enabled_.store(false); }
  bool enabled() const { return enabled_.load(); }

  /// Records an already-measured interval (used for the service's stage
  /// times, which the program measures itself).
  std::uint64_t record(const char* layer, const char* name, double t0,
                       double t1, std::uint64_t parent, std::uint64_t request);

  /// Self time per layer, summed over all recorded spans.
  std::map<std::string, double> self_time_by_layer() const;

  /// Writes the spans as Chrome trace events; false on I/O failure.
  bool write(const std::string& path) const;

  std::size_t size() const;

 private:
  friend class SpanScope;

  // Span stack of the calling thread (for parent links).
  std::uint64_t current() const;
  void push(std::uint64_t id);
  void pop();

  std::uint64_t next_id();
  void store(const Span& span);

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  std::uint64_t next_id_ = 1;  // guarded by mu_
};

Tracer& tracer();

/// RAII span: [construction, destruction) under `layer`/`name`, child of
/// the span currently open on this thread. No-op while tracing is off.
class SpanScope {
 public:
  SpanScope(const char* layer, const char* name, std::uint64_t request = 0);
  ~SpanScope();
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  const char* layer_;
  const char* name_;
  std::uint64_t request_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  double t0_ = 0.0;
};

}  // namespace perfbench
