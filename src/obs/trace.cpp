#include "obs/trace.hpp"

#include <fstream>
#include <functional>
#include <thread>

#include "obs/json.hpp"
#include "obs/spanctx.hpp"

namespace ftl::obs::real {

namespace {

std::uint64_t this_tid() {
  // Stable per-thread small-ish id; Chrome only needs it to separate rows.
  return std::hash<std::thread::id>{}(std::this_thread::get_id()) & 0xffffff;
}

}  // namespace

void Tracer::start() {
  const std::lock_guard<std::mutex> lock(mu_);
  events_.clear();
  t0_ = std::chrono::steady_clock::now();
  active_.store(true, std::memory_order_relaxed);
}

void Tracer::stop() { active_.store(false, std::memory_order_relaxed); }

double Tracer::now_us() const {
  if (t0_ == std::chrono::steady_clock::time_point{}) return 0.0;
  const auto dt = std::chrono::steady_clock::now() - t0_;
  return std::chrono::duration<double, std::micro>(dt).count();
}

void Tracer::record_complete(const char* name, const char* cat, double ts_us,
                             double dur_us) {
  if (!active()) return;
  const std::uint64_t tid = this_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, cat, 'X', ts_us, dur_us, tid});
}

void Tracer::record_span(const char* name, const char* cat, double ts_us,
                         double dur_us, std::uint64_t trace_id,
                         std::uint64_t span_id,
                         std::uint64_t parent_span_id) {
  if (!active()) return;
  const std::uint64_t tid = this_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, cat, 'X', ts_us, dur_us, tid, trace_id,
                          span_id, parent_span_id, nullptr});
}

void Tracer::record_instant_tagged(const char* name, const char* cat,
                                   std::uint64_t trace_id,
                                   const char* stage) {
  if (!active()) return;
  const std::uint64_t tid = this_tid();
  const double ts = now_us();
  const std::lock_guard<std::mutex> lock(mu_);
  events_.push_back(Event{name, cat, 'i', ts, 0.0, tid, trace_id, 0, 0,
                          stage});
}

double Tracer::ts_us(std::chrono::steady_clock::time_point tp) const {
  if (t0_ == std::chrono::steady_clock::time_point{}) return 0.0;
  return std::chrono::duration<double, std::micro>(tp - t0_).count();
}

std::uint64_t Tracer::t0_steady_ns() const {
  if (t0_ == std::chrono::steady_clock::time_point{}) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          t0_.time_since_epoch())
          .count());
}

std::size_t Tracer::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return events_.size();
}

std::string Tracer::json() const {
  json::Writer w;
  w.begin_object();
  w.key("displayTimeUnit");
  w.value("ms");
  // The steady-clock position of start(), as a string (a u64 of
  // nanoseconds can exceed the double-exact integer range). trace-merge
  // uses it to re-base two same-host files onto one timeline.
  w.key("otherData");
  w.begin_object();
  w.key("t0_steady_ns");
  w.value(std::to_string(t0_steady_ns()));
  w.end_object();
  w.key("traceEvents");
  w.begin_array();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    for (const Event& e : events_) {
      w.begin_object();
      w.key("name");
      w.value(e.name);
      w.key("cat");
      w.value(e.cat);
      w.key("ph");
      w.value(std::string_view(&e.phase, 1));
      w.key("ts");
      w.value(e.ts_us);
      if (e.phase == 'X') {
        w.key("dur");
        w.value(e.dur_us);
      } else {
        w.key("s");
        w.value("t");  // instant scope: thread
      }
      w.key("pid");
      w.value(1);
      w.key("tid");
      w.value(e.tid);
      if (e.trace_id != 0 || e.stage != nullptr) {
        w.key("args");
        w.begin_object();
        if (e.trace_id != 0) {
          w.key("trace_id");
          w.value(trace_id_hex(e.trace_id));
          if (e.span_id != 0) {
            w.key("span_id");
            w.value(trace_id_hex(e.span_id));
          }
          if (e.parent_span_id != 0) {
            w.key("parent_span_id");
            w.value(trace_id_hex(e.parent_span_id));
          }
        }
        if (e.stage != nullptr) {
          w.key("stage");
          w.value(e.stage);
        }
        w.end_object();
      }
      w.end_object();
    }
  }
  w.end_array();
  w.end_object();
  return w.take();
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << json() << '\n';
  return static_cast<bool>(out);
}

Tracer& tracer() noexcept {
  static Tracer t;
  return t;
}

}  // namespace ftl::obs::real
