#include "util/string_utils.hpp"

#include <cctype>
#include <charconv>
#include <system_error>

namespace hidap {

namespace {
/// The value of a non-empty all-digit string that fits an int.
std::optional<int> bit_index(std::string_view s) {
  if (s.empty() || s.front() < '0' || s.front() > '9') return std::nullopt;  // no sign
  int value = 0;
  const auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), value);
  if (ec != std::errc{} || end != s.data() + s.size()) return std::nullopt;
  return value;
}
}  // namespace

std::optional<ArrayName> parse_array_name(std::string_view name) {
  // Form "base[n]".
  if (!name.empty() && name.back() == ']') {
    const auto open = name.rfind('[');
    if (open != std::string_view::npos && open > 0) {
      if (const auto index = bit_index(name.substr(open + 1, name.size() - open - 2))) {
        return ArrayName{name.substr(0, open), *index};
      }
    }
  }
  // Form "base_n".
  const auto us = name.rfind('_');
  if (us != std::string_view::npos && us > 0 && us + 1 < name.size()) {
    if (const auto index = bit_index(name.substr(us + 1))) {
      return ArrayName{name.substr(0, us), *index};
    }
  }
  return std::nullopt;
}

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    const auto pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.front()))) {
    text.remove_prefix(1);
  }
  while (!text.empty() && std::isspace(static_cast<unsigned char>(text.back()))) {
    text.remove_suffix(1);
  }
  return text;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string join_path(std::string_view parent, std::string_view child) {
  if (parent.empty()) return std::string(child);
  std::string out;
  out.reserve(parent.size() + 1 + child.size());
  out.append(parent);
  out.push_back('/');
  out.append(child);
  return out;
}

}  // namespace hidap
