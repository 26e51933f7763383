#include "trace.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

#include "util/json.hpp"

namespace perfbench {

double now_s() noexcept {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::uint64_t Tracer::new_id() noexcept {
  if (!enabled()) return 0;
  return next_id_.fetch_add(1, std::memory_order_relaxed);
}

void Tracer::record(std::uint64_t id, std::uint64_t parent, std::uint64_t job,
                    const char* layer, const char* name, double start_s,
                    double end_s) {
  if (id == 0 || !enabled()) return;
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back({id, parent, job, layer, name, start_s, end_s});
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::map<std::string, LayerTime> Tracer::self_times() const {
  const auto all = spans();
  std::unordered_map<std::uint64_t, std::vector<const SpanRecord*>> children;
  for (const auto& s : all) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, LayerTime> out;
  for (const auto& s : all) {
    // Union of the children's intervals, clipped to the parent's.
    std::vector<std::pair<double, double>> cover;
    if (const auto it = children.find(s.id); it != children.end()) {
      for (const SpanRecord* c : it->second) {
        const double a = std::max(c->start_s, s.start_s);
        const double b = std::min(c->end_s, s.end_s);
        if (b > a) cover.emplace_back(a, b);
      }
    }
    std::sort(cover.begin(), cover.end());
    double covered = 0.0;
    double reach = s.start_s;
    for (const auto& [a, b] : cover) {
      const double from = std::max(a, reach);
      if (b > from) covered += b - from;
      reach = std::max(reach, b);
    }
    LayerTime& lt = out[s.layer];
    lt.self_s += std::max(0.0, (s.end_s - s.start_s) - covered);
    lt.spans += 1;
  }
  return out;
}

void Tracer::write(const std::string& path) const {
  const auto all = spans();
  surro::util::JsonWriter w;
  w.begin_object();
  w.kv("kind", "perfbench_trace");
  w.key("self_s").begin_object();
  for (const auto& [layer, t] : self_times()) {
    w.key(layer).begin_object();
    w.kv("self_s", t.self_s);
    w.kv("spans", t.spans);
    w.end_object();
  }
  w.end_object();
  w.key("spans").begin_array();
  for (const auto& s : all) {
    w.begin_object();
    w.kv("id", s.id);
    w.kv("parent", s.parent);
    w.kv("job", s.job);
    w.kv("layer", s.layer);
    w.kv("name", s.name);
    w.kv("start_s", s.start_s);
    w.kv("end_s", s.end_s);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os << w.str() << '\n';
  if (!os) throw std::runtime_error("trace: cannot write " + path);
}

}  // namespace perfbench
