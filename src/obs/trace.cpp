#include "obs/trace.hpp"

#include <algorithm>
#include <fstream>

#include "obs/json.hpp"

namespace ptatin::obs {

Tracer& Tracer::instance() {
  static Tracer tracer;
  return tracer;
}

Tracer::ThreadBuf& Tracer::local() {
  thread_local ThreadBuf* buf = nullptr;
  if (buf == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuf>());
    buffers_.back()->tid = static_cast<int>(buffers_.size()) - 1;
    buf = buffers_.back().get();
  }
  return *buf;
}

void Tracer::record(TraceEvent ev) { local().events.push_back(std::move(ev)); }

int Tracer::open_span() { return local().depth++; }

void Tracer::close_span() { --local().depth; }

int Tracer::thread_id() { return local().tid; }

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<TraceEvent> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& buf : buffers_)
      out.insert(out.end(), buf->events.begin(), buf->events.end());
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const TraceEvent& a, const TraceEvent& b) {
                     return a.ts_us < b.ts_us;
                   });
  return out;
}

void Tracer::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& buf : buffers_) buf->events.clear();
}

std::string Tracer::chrome_trace_json() const {
  // Streamed directly (not via JsonValue) — traces can hold 10^5+ events.
  const std::vector<TraceEvent> events = collect();
  std::string out;
  out.reserve(events.size() * 128 + 64);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& ev : events) {
    if (!first) out += ',';
    first = false;
    out += "\n{\"name\":\"";
    out += json_escape(ev.name);
    out += "\",\"cat\":\"ptatin\",\"ph\":\"X\",\"pid\":0,\"tid\":";
    out += json_number(ev.tid);
    out += ",\"ts\":";
    out += json_number(ev.ts_us);
    out += ",\"dur\":";
    out += json_number(ev.dur_us);
    if (ev.flops > 0 || ev.bytes_perfect > 0 || ev.bytes_pessimal > 0) {
      out += ",\"args\":{\"flops\":";
      out += json_number(ev.flops);
      out += ",\"bytes_perfect\":";
      out += json_number(ev.bytes_perfect);
      out += ",\"bytes_pessimal\":";
      out += json_number(ev.bytes_pessimal);
      out += '}';
    }
    out += '}';
  }
  out += "\n]}\n";
  return out;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << chrome_trace_json();
  return bool(f);
}

} // namespace ptatin::obs
