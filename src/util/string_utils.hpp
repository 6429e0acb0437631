#pragma once
// String helpers, most importantly array-name recognition.
//
// The paper (sect. IV-D step 2) clusters ports and flops into multi-bit
// arrays "using component names to find array structures (name[n],
// name_n)". parse_array_name implements exactly that convention.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace hidap {

/// Result of decomposing a bit-cell name into (array base, bit index).
struct ArrayName {
  std::string_view base;  ///< e.g. "u_fifo/data_q" for "u_fifo/data_q[3]"; views the input
  int index = 0;          ///< e.g. 3
  bool operator==(const ArrayName&) const = default;
};

/// Recognizes "name[n]" and "name_n" suffixes; returns nullopt when the
/// name carries no bit index. A digit suffix too large for an int is no
/// bit index either.
std::optional<ArrayName> parse_array_name(std::string_view name);

/// Splits on a delimiter; empty tokens are kept.
std::vector<std::string> split(std::string_view text, char delim);

/// Trims ASCII whitespace on both ends.
std::string_view trim(std::string_view text);

/// True when `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// Joins path components of a hierarchical instance name with '/'.
std::string join_path(std::string_view parent, std::string_view child);

}  // namespace hidap
