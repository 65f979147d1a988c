// Span recording for the traced run. One Tracer serves both as the engine's
// TraceSink (installed with Database::set_trace_sink, so the statement
// pipeline and XNF evaluator phases report into it) and as the recorder of
// the benchmark's own spans around each public call. Spans are kept per
// thread as an open stack and folded into per-name totals as they close:
// nothing is retained per span, so none is ever dropped.
#ifndef XNFBENCH_TRACER_H_
#define XNFBENCH_TRACER_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/trace.h"

namespace xnfbench {

class Tracer : public xnf::TraceSink {
 public:
  Tracer();

  struct Total {
    uint64_t count = 0;
    uint64_t total_ns = 0;  // inclusive duration
    uint64_t self_ns = 0;   // duration minus the time child spans cover
  };

  // Engine side (TraceSink). The engine's own duration is ignored: the
  // tracer times every span with its own clock, so children nest exactly.
  void BeginSpan(const std::string& name, const std::string& detail) override;
  void EndSpan(uint64_t duration_ns) override;

  // Benchmark side.
  void Begin(const std::string& name);
  void End();

  // Per-name totals over all threads.
  std::map<std::string, Total> Totals() const;
  // Time from a "call" span's begin to its first child's begin, and from its
  // last child's end to its own end, summed over calls that had a child —
  // the api layer's wrapper cost around the engine's "statement" span.
  uint64_t pre_child_ns() const;
  uint64_t post_child_ns() const;
  uint64_t calls_with_child() const;
  // Spans whose End never came or that closed with no open span.
  uint64_t unbalanced() const;

 private:
  struct Frame {
    int name = 0;
    uint64_t begin = 0;
    uint64_t child_ns = 0;
    bool has_child = false;
    uint64_t first_child_begin = 0;
    uint64_t last_child_end = 0;
  };
  struct ThreadState {
    std::vector<Frame> stack;
    std::vector<Total> totals;  // by interned name
    uint64_t pre_ns = 0, post_ns = 0, calls_with_child = 0, unbalanced = 0;
  };

  uint64_t Now() const;
  ThreadState* State();
  int Intern(const std::string& name);

  static constexpr int kCall = 0;  // interned id of "call"

  const uint64_t id_;  // distinguishes tracers in the per-thread cache
  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  // Guards names_ and threads_, not the thread states' contents: a state is
  // written only by its own thread, and read by the totals accessors only
  // after the recording threads have been joined.
  mutable std::mutex mu_;
  std::vector<std::string> names_{"call"};
  std::vector<std::unique_ptr<ThreadState>> threads_;
};

// RAII bench span; a null tracer records nothing.
class Span {
 public:
  Span(Tracer* tracer, const char* name) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name);
  }
  ~Span() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
};

// Counter and gauge values by name from MetricsRegistry::Snapshot().
std::map<std::string, int64_t> CounterValues(
    const xnf::MetricsRegistry& metrics);
// after[name] - before[name]; names missing on either side count as 0.
int64_t Delta(const std::map<std::string, int64_t>& before,
              const std::map<std::string, int64_t>& after,
              const std::string& name);
// Sum of Delta over every name with the given prefix and suffix.
int64_t DeltaSum(const std::map<std::string, int64_t>& before,
                 const std::map<std::string, int64_t>& after,
                 const std::string& prefix, const std::string& suffix);

}  // namespace xnfbench

#endif  // XNFBENCH_TRACER_H_
