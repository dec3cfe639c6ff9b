#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <functional>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common.h"

namespace perfbench {

namespace {

thread_local std::vector<std::uint64_t> t_stack;

int thread_number() {
  static std::atomic<int> next{0};
  thread_local const int n = next.fetch_add(1);
  return n;
}

}  // namespace

Tracer& tracer() {
  static Tracer t;
  return t;
}

std::uint64_t Tracer::next_id() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_id_++;
}

void Tracer::store(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

std::uint64_t Tracer::record(const char* layer, const char* name, double t0,
                             double t1, std::uint64_t parent,
                             std::uint64_t request) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::uint64_t id = next_id_++;
  spans_.push_back({id, parent, request, layer, name, t0, t1, thread_number()});
  return id;
}

std::uint64_t Tracer::current() const {
  return t_stack.empty() ? 0 : t_stack.back();
}
void Tracer::push(std::uint64_t id) { t_stack.push_back(id); }
void Tracer::pop() { t_stack.pop_back(); }

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::map<std::string, double> Tracer::self_time_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, std::vector<std::pair<double, double>>>
      children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].emplace_back(s.t0, s.t1);
  }
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    double covered = 0.0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto iv = it->second;
      std::sort(iv.begin(), iv.end());
      double lo = s.t0;
      for (auto [a, b] : iv) {
        a = std::max(a, lo);
        b = std::min(b, s.t1);
        if (b > a) {
          covered += b - a;
          lo = b;
        }
      }
    }
    out[s.layer] += std::max(0.0, (s.t1 - s.t0) - covered);
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", "
                 "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %d, "
                 "\"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}",
                 i ? ",\n" : "", s.name, s.layer, (s.t0 - origin) * 1e6,
                 (s.t1 - s.t0) * 1e6, s.thread,
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

SpanScope::SpanScope(const char* layer, const char* name,
                     std::uint64_t request)
    : layer_(layer), name_(name), request_(request) {
  Tracer& t = tracer();
  if (!t.enabled()) return;
  id_ = t.next_id();
  parent_ = t.current();
  t.push(id_);
  t0_ = now_s();
}

SpanScope::~SpanScope() {
  if (id_ == 0) return;
  Tracer& t = tracer();
  const double t1 = now_s();
  t.pop();
  t.store({id_, parent_, request_, layer_, name_, t0_, t1, thread_number()});
}

}  // namespace perfbench
