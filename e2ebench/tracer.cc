#include "tracer.h"

#include <atomic>

namespace xnfbench {

namespace {
// Per-thread cache of the state a thread owns in the tracer it last used.
thread_local uint64_t tls_owner = 0;
thread_local void* tls_state = nullptr;
std::atomic<uint64_t> next_tracer_id{1};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}
}  // namespace

Tracer::Tracer() : id_(next_tracer_id.fetch_add(1)) {}

uint64_t Tracer::Now() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

Tracer::ThreadState* Tracer::State() {
  if (tls_owner != id_) {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.push_back(std::make_unique<ThreadState>());
    tls_owner = id_;
    tls_state = threads_.back().get();
  }
  return static_cast<ThreadState*>(tls_state);
}

int Tracer::Intern(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  names_.push_back(name);
  return static_cast<int>(names_.size() - 1);
}

void Tracer::BeginSpan(const std::string& name, const std::string&) {
  Begin(name);
}

void Tracer::EndSpan(uint64_t) { End(); }

void Tracer::Begin(const std::string& name) {
  ThreadState* state = State();
  Frame frame;
  frame.name = Intern(name);
  frame.begin = Now();
  state->stack.push_back(frame);
}

void Tracer::End() {
  const uint64_t end = Now();
  ThreadState* state = State();
  if (state->stack.empty()) {
    ++state->unbalanced;
    return;
  }
  Frame frame = state->stack.back();
  state->stack.pop_back();
  const uint64_t dur = end - frame.begin;
  if (state->totals.size() <= static_cast<size_t>(frame.name)) {
    state->totals.resize(frame.name + 1);
  }
  Total& t = state->totals[frame.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur > frame.child_ns ? dur - frame.child_ns : 0;
  if (frame.has_child && frame.name == kCall) {
    state->pre_ns += frame.first_child_begin - frame.begin;
    state->post_ns += end - frame.last_child_end;
    ++state->calls_with_child;
  }
  if (!state->stack.empty()) {
    Frame& parent = state->stack.back();
    parent.child_ns += dur;
    if (!parent.has_child) {
      parent.has_child = true;
      parent.first_child_begin = frame.begin;
    }
    parent.last_child_end = end;
  }
}

std::map<std::string, Tracer::Total> Tracer::Totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, Total> out;
  for (const auto& state : threads_) {
    for (size_t i = 0; i < state->totals.size(); ++i) {
      const Total& t = state->totals[i];
      if (t.count == 0) continue;
      Total& o = out[names_[i]];
      o.count += t.count;
      o.total_ns += t.total_ns;
      o.self_ns += t.self_ns;
    }
  }
  return out;
}

uint64_t Tracer::pre_child_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& state : threads_) sum += state->pre_ns;
  return sum;
}

uint64_t Tracer::post_child_ns() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& state : threads_) sum += state->post_ns;
  return sum;
}

uint64_t Tracer::calls_with_child() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& state : threads_) sum += state->calls_with_child;
  return sum;
}

uint64_t Tracer::unbalanced() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t sum = 0;
  for (const auto& state : threads_) {
    sum += state->unbalanced + state->stack.size();
  }
  return sum;
}

std::map<std::string, int64_t> CounterValues(
    const xnf::MetricsRegistry& metrics) {
  std::map<std::string, int64_t> out;
  for (const xnf::MetricsRegistry::Sample& s : metrics.Snapshot()) {
    if (s.kind == "counter" || s.kind == "gauge") out[s.name] = s.value;
  }
  return out;
}

int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name) {
  auto a = after.find(name);
  auto b = before.find(name);
  return (a == after.end() ? 0 : a->second) -
         (b == before.end() ? 0 : b->second);
}

int64_t DeltaSum(const std::map<std::string, int64_t>& before,
                 const std::map<std::string, int64_t>& after,
                 const std::string& prefix, const std::string& suffix) {
  int64_t sum = 0;
  for (const auto& [name, value] : after) {
    if (name.compare(0, prefix.size(), prefix) == 0 &&
        EndsWith(name, suffix)) {
      sum += Delta(before, after, name);
    }
  }
  return sum;
}

}  // namespace xnfbench
