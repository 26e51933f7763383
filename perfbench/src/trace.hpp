#pragma once
// In-memory span tracer for the benchmark's own calls into the library's
// layers. A span records (id, parent, job, layer, name, start, end); spans
// stay in memory and are written out once, at exit. A layer's self time is
// its spans' durations minus the part of each interval that child spans
// cover. A disabled tracer records nothing, so untraced runs pay one
// branch per call site.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the process-wide steady clock (shared by the tracer and the
/// workloads, so span times and job times line up).
[[nodiscard]] double now_s() noexcept;

struct SpanRecord {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t job = 0;     ///< job index + 1; 0 = not part of a job
  const char* layer = "";    ///< panda, linalg, nn, models, serve, net, bench
  const char* name = "";
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Per-layer self time, summed over spans.
struct LayerTime {
  double self_s = 0.0;
  std::size_t spans = 0;
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool on) noexcept {
    enabled_.store(on, std::memory_order_relaxed);
  }

  /// A fresh span id (0 when disabled), for spans whose children are
  /// recorded before the span itself ends.
  [[nodiscard]] std::uint64_t new_id() noexcept;

  /// Record a finished span under an id from new_id(). No-op when
  /// disabled or when `id` is 0.
  void record(std::uint64_t id, std::uint64_t parent, std::uint64_t job,
              const char* layer, const char* name, double start_s,
              double end_s);

  /// Self time per layer over every recorded span.
  [[nodiscard]] std::map<std::string, LayerTime> self_times() const;
  /// Write every span as JSON (one document). Throws on I/O failure.
  void write(const std::string& path) const;

 private:
  [[nodiscard]] std::vector<SpanRecord> spans() const;

  std::atomic<bool> enabled_;
  std::atomic<std::uint64_t> next_id_{1};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: starts at construction, records at destruction.
class Span {
 public:
  Span(Tracer& tracer, const char* layer, const char* name,
       std::uint64_t parent = 0, std::uint64_t job = 0)
      : tracer_(tracer),
        layer_(layer),
        name_(name),
        parent_(parent),
        job_(job),
        id_(tracer.new_id()),
        start_s_(id_ != 0 ? now_s() : 0.0) {}
  ~Span() {
    if (id_ != 0) {
      tracer_.record(id_, parent_, job_, layer_, name_, start_s_, now_s());
    }
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

 private:
  Tracer& tracer_;
  const char* layer_;
  const char* name_;
  std::uint64_t parent_;
  std::uint64_t job_;
  std::uint64_t id_;
  double start_s_;
};

}  // namespace perfbench
