#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "obs/metrics.hpp"
#include "util/env.hpp"

namespace hidap::obs {

namespace {

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag{[] {
    const char* env = std::getenv("HIDAP_TRACE");
    return env != nullptr && std::strcmp(env, "0") != 0;
  }()};
  return flag;
}

}  // namespace

bool tracing_enabled() { return trace_flag().load(std::memory_order_relaxed); }

void set_tracing_enabled(bool enabled) {
  trace_flag().store(enabled, std::memory_order_relaxed);
}

// One thread's ring. Owned by the tracer's registry vector and never
// freed, so events survive their thread's exit and export during static
// teardown stays safe. The mutex is only ever contended by the exporter.
struct Tracer::ThreadBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> ring;
  std::size_t capacity = 0;
  std::uint64_t total = 0;  ///< events ever recorded; > capacity => wrapped
  std::uint32_t tid = 0;
};

Tracer::Tracer() {
  // 0 = unset = default 64K events; explicit values are clamped to the
  // same floor set_ring_capacity enforces and a 4M-event sanity ceiling.
  std::size_t capacity = std::size_t{1} << 16;
  const long n = env_long("HIDAP_TRACE_BUFFER", 0, 16, long{1} << 22);
  if (n > 0) capacity = static_cast<std::size_t>(n);
  capacity_.store(capacity, std::memory_order_relaxed);
  epoch_ns_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now().time_since_epoch())
                  .count();
}

Tracer& Tracer::instance() {
  // Intentionally leaked (see ThreadBuffer ownership note).
  static Tracer* tracer = new Tracer();
  return *tracer;
}

std::int64_t Tracer::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

void Tracer::set_ring_capacity(std::size_t capacity) {
  capacity_.store(std::max<std::size_t>(capacity, 16), std::memory_order_relaxed);
}

Tracer::ThreadBuffer& Tracer::local_buffer() {
  static thread_local ThreadBuffer* local = nullptr;
  if (local == nullptr) {
    auto* buffer = new ThreadBuffer();
    buffer->capacity = ring_capacity();
    buffer->ring.reserve(std::min<std::size_t>(buffer->capacity, 1024));
    buffer->tid = next_tid_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(registry_mutex_);
      buffers_.push_back(buffer);
    }
    local = buffer;
  }
  return *local;
}

void Tracer::record(const TraceEvent& event) {
  ThreadBuffer& buffer = local_buffer();
  std::lock_guard<std::mutex> lock(buffer.mutex);
  TraceEvent stamped = event;
  stamped.tid = buffer.tid;
  if (buffer.ring.size() < buffer.capacity) {
    buffer.ring.push_back(stamped);
  } else {
    buffer.ring[buffer.total % buffer.capacity] = stamped;  // overwrite oldest
  }
  ++buffer.total;
}

std::vector<TraceEvent> Tracer::collect() const {
  std::vector<ThreadBuffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  std::vector<TraceEvent> out;
  for (ThreadBuffer* buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    if (buffer->total <= buffer->capacity) {
      out.insert(out.end(), buffer->ring.begin(), buffer->ring.end());
    } else {
      // Wrapped ring: oldest surviving event sits at total % capacity.
      const std::size_t head = buffer->total % buffer->capacity;
      out.insert(out.end(), buffer->ring.begin() + static_cast<std::ptrdiff_t>(head),
                 buffer->ring.end());
      out.insert(out.end(), buffer->ring.begin(),
                 buffer->ring.begin() + static_cast<std::ptrdiff_t>(head));
    }
  }
  // (tid, start asc, longer first): parents precede children, so the
  // self-time stack walk and the JSON export are deterministic.
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
    return a.dur_ns > b.dur_ns;
  });
  return out;
}

std::uint64_t Tracer::dropped() const {
  std::vector<ThreadBuffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  std::uint64_t dropped = 0;
  for (ThreadBuffer* buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    if (buffer->total > buffer->capacity) dropped += buffer->total - buffer->capacity;
  }
  return dropped;
}

void Tracer::clear() {
  std::vector<ThreadBuffer*> buffers;
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    buffers = buffers_;
  }
  for (ThreadBuffer* buffer : buffers) {
    std::lock_guard<std::mutex> lock(buffer->mutex);
    buffer->ring.clear();
    buffer->total = 0;
    buffer->capacity = ring_capacity();
  }
}

bool Tracer::export_chrome_trace(const std::string& path, std::string* error) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    if (error != nullptr) *error = "cannot write " + path;
    return false;
  }
  const std::vector<TraceEvent> events = collect();
  // Chrome trace_event JSON object format: "X" (complete) events with
  // microsecond ts/dur, one event per line so tools (and tests) can
  // process the file line-wise.
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", out);
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& e = events[i];
    std::fprintf(out,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                 "\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                 e.name, e.cat, static_cast<double>(e.start_ns) / 1e3,
                 static_cast<double>(e.dur_ns) / 1e3, e.tid);
    if (e.arg_count > 0) {
      std::fputs(",\"args\":{", out);
      for (int a = 0; a < e.arg_count; ++a) {
        std::fprintf(out, "%s\"%s\":%lld", a > 0 ? "," : "", e.arg_name[a],
                     static_cast<long long>(e.arg_value[a]));
      }
      std::fputc('}', out);
    }
    std::fputs(i + 1 < events.size() ? "},\n" : "}\n", out);
  }
  std::fputs("]}\n", out);
  const bool ok = std::fclose(out) == 0;
  if (!ok && error != nullptr) *error = "write error on " + path;
  return ok;
}

std::vector<PhaseStat> Tracer::phase_stats() const {
  const std::vector<TraceEvent> events = collect();
  struct Frame {
    const char* name;
    std::int64_t end_ns;
    std::int64_t dur_ns;
    std::int64_t child_ns = 0;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  std::map<std::string, Agg> by_name;
  std::vector<Frame> stack;
  const auto finalize = [&](const Frame& f) {
    by_name[f.name].self_ns += std::max<std::int64_t>(0, f.dur_ns - f.child_ns);
  };
  std::uint32_t tid = 0;
  bool first = true;
  for (const TraceEvent& e : events) {
    if (first || e.tid != tid) {
      for (; !stack.empty(); stack.pop_back()) finalize(stack.back());
      tid = e.tid;
      first = false;
    }
    while (!stack.empty() && stack.back().end_ns <= e.start_ns) {
      finalize(stack.back());
      stack.pop_back();
    }
    // Same-thread RAII spans nest strictly, so an enclosing frame that
    // survived the pop above contains this span entirely; its duration
    // (children included) is the parent's child time.
    if (!stack.empty()) stack.back().child_ns += e.dur_ns;
    Agg& agg = by_name[e.name];
    ++agg.count;
    agg.total_ns += e.dur_ns;
    stack.push_back(Frame{e.name, e.start_ns + e.dur_ns, e.dur_ns});
  }
  for (; !stack.empty(); stack.pop_back()) finalize(stack.back());

  std::vector<PhaseStat> out;
  out.reserve(by_name.size());
  for (const auto& [name, agg] : by_name) {
    PhaseStat stat;
    stat.name = name;
    stat.count = agg.count;
    stat.total_s = static_cast<double>(agg.total_ns) / 1e9;
    stat.self_s = static_cast<double>(agg.self_ns) / 1e9;
    out.push_back(std::move(stat));
  }
  std::sort(out.begin(), out.end(),
            [](const PhaseStat& a, const PhaseStat& b) { return a.self_s > b.self_s; });
  return out;
}

std::string Tracer::phase_summary() const {
  const std::vector<PhaseStat> stats = phase_stats();
  double self_sum = 0.0;
  for (const PhaseStat& s : stats) self_sum += s.self_s;
  std::string out;
  char line[160];
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12s %7s\n", "phase", "count",
                "total(s)", "self(s)", "self%");
  out += line;
  out += std::string(72, '-') + "\n";
  for (const PhaseStat& s : stats) {
    std::snprintf(line, sizeof(line), "%-28s %10llu %12.3f %12.3f %6.1f%%\n",
                  s.name.c_str(), static_cast<unsigned long long>(s.count), s.total_s,
                  s.self_s, self_sum > 0 ? 100.0 * s.self_s / self_sum : 0.0);
    out += line;
  }
  std::snprintf(line, sizeof(line), "%-28s %10s %12s %12.3f\n", "(self-time sum)", "",
                "", self_sum);
  out += line;
  if (const std::uint64_t lost = dropped()) {
    std::snprintf(line, sizeof(line),
                  "note: %llu events overwrote older ones (ring wrap); raise "
                  "HIDAP_TRACE_BUFFER for complete traces\n",
                  static_cast<unsigned long long>(lost));
    out += line;
  }
  return out;
}

Span::Span(const char* name, const char* cat) {
  if (!tracing_enabled()) return;  // one relaxed load + branch when off
  active_ = true;
  event_.name = name;
  event_.cat = cat;
  event_.start_ns = Tracer::instance().now_ns();
}

Span::~Span() {
  if (!active_) return;
  Tracer& tracer = Tracer::instance();
  event_.dur_ns = tracer.now_ns() - event_.start_ns;
  tracer.record(event_);
}

void Span::arg(const char* name, std::int64_t value) {
  if (!active_ || event_.arg_count >= TraceEvent::kMaxArgs) return;
  event_.arg_name[event_.arg_count] = name;
  event_.arg_value[event_.arg_count] = value;
  ++event_.arg_count;
}

Phase::Phase(const char* name, const char* cat) : name_(name), span_(name, cat) {}

Phase::~Phase() {
  const auto micros = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - start_);
  default_registry()
      .counter(std::string("phase.") + name_ + "_us")
      .add(static_cast<std::uint64_t>(micros.count()));
}

std::vector<PhaseStat> phase_stats() { return Tracer::instance().phase_stats(); }
std::string phase_summary() { return Tracer::instance().phase_summary(); }

}  // namespace hidap::obs
