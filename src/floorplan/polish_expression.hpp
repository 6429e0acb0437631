#pragma once
// Normalized Polish expressions for slicing floorplans (Wong-Liu, DAC'86;
// the paper's layout representation, sect. IV-E).
//
// An expression is a postfix sequence of operands (block ids >= 0) and
// the operators H and V. Following Wong-Liu conventions:
//   * `V` (vertical cut) places the two sub-floorplans side by side
//     (widths add, heights max),
//   * `H` (horizontal cut) stacks them (heights add, widths max).
// Normalization (no two adjacent identical operators) makes slicing trees
// unique; the three perturbations are the classical M1 (swap adjacent
// operands), M2 (complement an operator chain) and M3 (swap an adjacent
// operand-operator pair) -- the paper's "operand swap, operator inversion,
// operand-operator swap".

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace hidap {

inline constexpr int kOpH = -1;
inline constexpr int kOpV = -2;

inline bool is_operator(int e) { return e < 0; }
inline int complement_op(int op) { return op == kOpH ? kOpV : kOpH; }

class PolishExpression {
 public:
  PolishExpression() = default;
  explicit PolishExpression(std::vector<int> elems) : elems_(std::move(elems)) {}

  /// Canonical initial solution: 0 1 V 2 V ... (a row of blocks).
  static PolishExpression initial(int operand_count);

  const std::vector<int>& elements() const { return elems_; }
  std::size_t size() const { return elems_.size(); }
  int operand_count() const;

  /// Checks postfix validity, the balloting property and normalization.
  bool is_valid() const;

  /// Applies one randomly chosen move (uniform over the three kinds, as
  /// in the paper). Returns false when the sampled move was inapplicable
  /// (caller usually resamples).
  bool perturb(Rng& rng);

  // The individual moves, exposed for tests and targeted search.
  bool move_swap_operands(Rng& rng);          // M1
  bool move_invert_chain(Rng& rng);           // M2
  bool move_swap_operand_operator(Rng& rng);  // M3

  std::string to_string() const;

  bool operator==(const PolishExpression&) const = default;

 private:
  std::vector<int> elems_;
};

/// Number of normalized Polish expressions over `operand_count` distinct
/// operands: n! * S(n-1), S the large Schroeder numbers -- 1, 4, 36, 528,
/// 10800 for n = 1..5. Exact up to n = 12; UINT64_MAX beyond.
std::uint64_t normalized_expression_count(int operand_count);

/// The distinct normalized expressions a search over `operand_count`
/// operands has proposed, tracked only when that whole state space fits
/// kCapacity entries (n <= 3: at most 36 expressions). A slicing
/// annealer whose cost is a pure function of the expression can stop
/// once exhausted(): every later proposal repeats a cost it has already
/// weighed. Larger problems are not tracked and never exhaust.
class ExpressionSpaceTracker {
 public:
  static constexpr std::size_t kCapacity = 36;

  explicit ExpressionSpaceTracker(int operand_count);

  bool tracking() const { return size_ != 0; }
  /// Notes `expr` (a valid expression over the tracked operands) as
  /// seen; a no-op when not tracking.
  void record(const PolishExpression& expr);
  /// True once every expression of the state space has been recorded.
  bool exhausted() const { return tracking() && seen_ == size_; }

 private:
  std::array<std::uint16_t, kCapacity> keys_{};  ///< seen_ distinct keys
  std::size_t seen_ = 0;
  std::size_t size_ = 0;  ///< state-space size; 0 = not tracking
};

/// Slicing tree decoded from a Polish expression. Node 0..n-1 are not
/// meaningful ids; use `root` and the child links.
struct SlicingTree {
  struct Node {
    int left = -1;
    int right = -1;
    int op = 0;     ///< kOpH or kOpV for internal nodes
    int leaf = -1;  ///< operand id for leaves, -1 for internal nodes
    bool is_leaf() const { return leaf >= 0; }
  };
  std::vector<Node> nodes;
  int root = -1;

  static SlicingTree from_polish(const PolishExpression& expr);
};

}  // namespace hidap
