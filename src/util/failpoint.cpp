#include "util/failpoint.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "obs/metrics.hpp"
#include "util/log.hpp"
#include "util/string_utils.hpp"

namespace hidap {

namespace {

// The static site table: every fail point threaded through the stack,
// with the ErrorCode the real failure at that site would carry. Sweep
// tests enumerate this list; keep it in sync with the HIDAP_FAILPOINT
// sites (grep for the name to find the site).
struct KnownPoint {
  const char* name;
  ErrorCode code;
};
constexpr KnownPoint kKnownPoints[] = {
    {"netlist.verilog_read", ErrorCode::IoError},
    {"netlist.verilog_parse", ErrorCode::ParseError},
    {"netlist.verilog_write", ErrorCode::IoError},
    {"netlist.def_read", ErrorCode::IoError},
    {"netlist.def_write", ErrorCode::IoError},
    {"netlist.def_parse", ErrorCode::ParseError},
    {"cache.design_parse", ErrorCode::ParseError},
    {"cache.context_build", ErrorCode::Internal},
    {"cache.donate", ErrorCode::Internal},
    {"session.read_input", ErrorCode::IoError},
    {"session.run", ErrorCode::Internal},
    {"pool.dispatch", ErrorCode::ResourceExhausted},
    {"pool.task", ErrorCode::Internal},
    {"serve.request", ErrorCode::InvalidRequest},
    {"serve.job", ErrorCode::Internal},
    {"serve.write_def", ErrorCode::IoError},
};

}  // namespace

void FailPoint::fire() {
  Mode mode;
  ErrorCode code;
  int delay_ms;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_.load(std::memory_order_relaxed)) return;  // raced a disarm
    // A @once point disarms under the lock, so of racing evaluations
    // exactly one fires.
    if (once_) armed_.store(false, std::memory_order_relaxed);
    mode = mode_;
    code = code_;
    delay_ms = delay_ms_;
  }
  fires_.fetch_add(1, std::memory_order_relaxed);
  obs::default_registry().counter("faults.fired").add(1);
  HIDAP_LOG_WARN("failpoint %s fired (mode %d)", name_.c_str(), static_cast<int>(mode));
  if (mode == Mode::Delay) {
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    return;
  }
  throw HidapError(code, "injected failure at fail point " + name_);
}

bool FailPoint::arm(const std::string& spec, std::string* error) {
  // A malformed spec leaves the point disarmed (header contract), even
  // if it was armed with a valid spec before.
  const auto fail = [&](const std::string& why) {
    disarm();
    if (error != nullptr) *error = why;
    return false;
  };

  // Split "mode[@once]".
  std::string mode_part = spec;
  bool once = false;
  const std::size_t at = spec.find('@');
  if (at != std::string::npos) {
    mode_part = spec.substr(0, at);
    const std::string trigger = spec.substr(at + 1);
    if (trigger != "once") return fail("unknown trigger '" + trigger + "' (want @once)");
    once = true;
  }

  Mode mode;
  ErrorCode code = default_code_;
  int delay_ms = 0;
  if (mode_part == "throw") {
    mode = Mode::Throw;
  } else if (mode_part.rfind("throw(", 0) == 0 && mode_part.back() == ')') {
    mode = Mode::Throw;
    code = error_code_from_string(mode_part.substr(6, mode_part.size() - 7));
  } else if (mode_part.rfind("delay(", 0) == 0 && mode_part.back() == ')') {
    mode = Mode::Delay;
    const std::string ms = mode_part.substr(6, mode_part.size() - 7);
    char* end = nullptr;
    const long v = std::strtol(ms.c_str(), &end, 10);
    if (end == ms.c_str() || *end != '\0' || v < 0 || v > 600000) {
      return fail("bad delay milliseconds '" + ms + "'");
    }
    delay_ms = static_cast<int>(v);
  } else {
    return fail("unknown mode '" + mode_part + "'");
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    mode_ = mode;
    once_ = once;
    code_ = code;
    delay_ms_ = delay_ms;
  }
  armed_.store(true, std::memory_order_relaxed);  // config visible before arm
  return true;
}

FailPointRegistry::FailPointRegistry() {
  for (const KnownPoint& p : kKnownPoints) {
    points_.push_back(std::make_unique<FailPoint>(p.name, p.code));
  }
  if (const char* env = std::getenv("HIDAP_FAILPOINTS"); env != nullptr && *env != '\0') {
    arm_from_spec_list(env);
  }
}

FailPointRegistry& FailPointRegistry::instance() {
  static FailPointRegistry* registry = new FailPointRegistry();  // leaked: handles
  return *registry;                                              // outlive exit paths
}

FailPoint& FailPointRegistry::point(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& p : points_) {
    if (p->name() == name) return *p;
  }
  points_.push_back(std::make_unique<FailPoint>(name, ErrorCode::Internal));
  return *points_.back();
}

std::vector<FailPoint*> FailPointRegistry::all_points() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<FailPoint*> out;
  out.reserve(points_.size());
  for (const auto& p : points_) out.push_back(p.get());
  return out;
}

bool FailPointRegistry::arm(const std::string& name, const std::string& spec,
                            std::string* error) {
  return point(name).arm(spec, error);
}

void FailPointRegistry::disarm(const std::string& name) { point(name).disarm(); }

void FailPointRegistry::disarm_all() {
  for (FailPoint* p : all_points()) p->disarm();
}

int FailPointRegistry::arm_from_spec_list(const std::string& list) {
  int armed = 0;
  for (const std::string& entry : split(list, ',')) {
    const std::string trimmed{trim(entry)};
    if (trimmed.empty()) continue;
    const std::size_t colon = trimmed.find(':');
    if (colon == std::string::npos || colon == 0) {
      HIDAP_LOG_WARN("HIDAP_FAILPOINTS: skipping malformed entry '%s' (want name:spec)",
                     trimmed.c_str());
      continue;
    }
    std::string error;
    if (!arm(trimmed.substr(0, colon), trimmed.substr(colon + 1), &error)) {
      HIDAP_LOG_WARN("HIDAP_FAILPOINTS: skipping '%s': %s", trimmed.c_str(),
                     error.c_str());
      continue;
    }
    ++armed;
  }
  return armed;
}

}  // namespace hidap
