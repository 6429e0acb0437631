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
    {"netlist.def_read", ErrorCode::IoError},
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

// splitmix64: deterministic per-(seed, ordinal) probability draws.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

bool FailPoint::fire(bool supports_error_return) {
  evaluations_.fetch_add(1, std::memory_order_relaxed);
  Mode mode;
  ErrorCode code;
  int delay_ms;
  bool selected = false;
  bool disarm_after = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!armed_.load(std::memory_order_relaxed)) return false;  // raced a disarm
    const std::uint64_t ordinal = trigger_ordinal_++;
    switch (trigger_) {
      case Trigger::Always: selected = true; break;
      case Trigger::Once:
        selected = ordinal == 0;
        disarm_after = selected;
        break;
      case Trigger::EveryNth: selected = (ordinal + 1) % every_n_ == 0; break;
      case Trigger::Probability: {
        // Deterministic: the draw depends only on (seed, ordinal), so
        // the same evaluation ordinals fire in every run.
        const double draw = static_cast<double>(mix64(prob_seed_ ^ ordinal) >> 11) *
                            (1.0 / 9007199254740992.0);  // 2^53
        selected = draw < probability_;
        break;
      }
    }
    mode = mode_;
    code = code_;
    delay_ms = delay_ms_;
  }
  if (!selected) return false;
  fires_.fetch_add(1, std::memory_order_relaxed);
  obs::default_registry().counter("faults.fired").add(1);
  if (disarm_after) disarm();
  HIDAP_LOG_WARN("failpoint %s fired (mode %d)", name_.c_str(), static_cast<int>(mode));
  switch (mode) {
    case Mode::Delay:
      std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
      return false;
    case Mode::ErrorReturn:
      if (supports_error_return) return true;
      [[fallthrough]];  // no graceful path at this site: surface as a throw
    case Mode::Throw:
      throw HidapError(code, "injected failure at fail point " + name_);
  }
  return false;
}

bool FailPoint::arm(const std::string& spec, std::string* error) {
  // A malformed spec leaves the point disarmed (header contract), even
  // if it was armed with a valid spec before.
  const auto fail = [&](const std::string& why) {
    disarm();
    if (error != nullptr) *error = why;
    return false;
  };

  // Split "mode[@trigger]".
  std::string mode_part = spec;
  std::string trigger_part;
  const std::size_t at = spec.find('@');
  if (at != std::string::npos) {
    mode_part = spec.substr(0, at);
    trigger_part = spec.substr(at + 1);
    if (trigger_part.empty()) return fail("empty trigger after '@'");
  }

  Mode mode;
  ErrorCode code = default_code_;
  int delay_ms = 0;
  if (mode_part == "throw") {
    mode = Mode::Throw;
  } else if (mode_part.rfind("throw(", 0) == 0 && mode_part.back() == ')') {
    mode = Mode::Throw;
    code = error_code_from_string(mode_part.substr(6, mode_part.size() - 7));
  } else if (mode_part == "error") {
    mode = Mode::ErrorReturn;
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

  Trigger trigger = Trigger::Always;
  std::uint64_t every_n = 1;
  double probability = 1.0;
  std::uint64_t prob_seed = fnv1a(name_);
  if (!trigger_part.empty()) {
    if (trigger_part == "once") {
      trigger = Trigger::Once;
    } else if (trigger_part.rfind("every(", 0) == 0 && trigger_part.back() == ')') {
      trigger = Trigger::EveryNth;
      const std::string n = trigger_part.substr(6, trigger_part.size() - 7);
      char* end = nullptr;
      const long v = std::strtol(n.c_str(), &end, 10);
      if (end == n.c_str() || *end != '\0' || v < 1) {
        return fail("bad every(N) '" + n + "'");
      }
      every_n = static_cast<std::uint64_t>(v);
    } else if (trigger_part.rfind("p(", 0) == 0 && trigger_part.back() == ')') {
      trigger = Trigger::Probability;
      const std::string body = trigger_part.substr(2, trigger_part.size() - 3);
      const std::size_t comma = body.find(',');
      const std::string p_str = body.substr(0, comma);
      char* end = nullptr;
      probability = std::strtod(p_str.c_str(), &end);
      if (end == p_str.c_str() || *end != '\0' || !(probability >= 0.0) ||
          probability > 1.0) {
        return fail("bad probability '" + p_str + "'");
      }
      if (comma != std::string::npos) {
        const std::string seed_str = body.substr(comma + 1);
        end = nullptr;
        const unsigned long long s = std::strtoull(seed_str.c_str(), &end, 10);
        if (end == seed_str.c_str() || *end != '\0') {
          return fail("bad probability seed '" + seed_str + "'");
        }
        prob_seed = static_cast<std::uint64_t>(s);
      }
    } else {
      return fail("unknown trigger '" + trigger_part + "'");
    }
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    mode_ = mode;
    code_ = code;
    delay_ms_ = delay_ms;
    trigger_ = trigger;
    every_n_ = every_n;
    probability_ = probability;
    prob_seed_ = prob_seed;
    trigger_ordinal_ = 0;
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
