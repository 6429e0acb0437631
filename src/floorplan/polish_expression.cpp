#include "floorplan/polish_expression.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <stdexcept>

namespace hidap {

PolishExpression PolishExpression::initial(int operand_count) {
  std::vector<int> elems;
  elems.reserve(static_cast<std::size_t>(operand_count) * 2);
  for (int i = 0; i < operand_count; ++i) {
    elems.push_back(i);
    if (i > 0) elems.push_back(i % 2 == 1 ? kOpV : kOpH);
  }
  return PolishExpression(std::move(elems));
}

int PolishExpression::operand_count() const {
  int n = 0;
  for (const int e : elems_) n += is_operator(e) ? 0 : 1;
  return n;
}

bool PolishExpression::is_valid() const {
  if (elems_.empty()) return false;
  int operands = 0, operators = 0;
  for (std::size_t i = 0; i < elems_.size(); ++i) {
    if (is_operator(elems_[i])) {
      ++operators;
      // Balloting property: every prefix has more operands than operators.
      if (operators >= operands) return false;
      // Normalization: no two adjacent identical operators.
      if (i > 0 && elems_[i - 1] == elems_[i]) return false;
    } else {
      ++operands;
    }
  }
  return operators == operands - 1;
}

// The moves draw from the RNG exactly as if they had first collected
// every candidate into a list, but locate the drawn candidate by a
// second scan instead, so a move never touches the heap.

bool PolishExpression::move_swap_operands(Rng& rng) {
  // Swap two operands adjacent in the operand subsequence.
  const std::size_t len = elems_.size();
  int operands = 0;
  for (const int e : elems_) operands += is_operator(e) ? 0 : 1;
  if (operands < 2) return false;
  int k = rng.next_int(0, operands - 2);
  std::size_t first = 0;
  while (is_operator(elems_[first]) || k-- > 0) ++first;
  std::size_t second = first + 1;
  while (second < len && is_operator(elems_[second])) ++second;
  std::swap(elems_[first], elems_[second]);
  return true;
}

bool PolishExpression::move_invert_chain(Rng& rng) {
  // A chain is a maximal run of operators; complement every operator in
  // a randomly selected chain. Normalization is preserved: a complemented
  // alternating run stays alternating.
  const std::size_t len = elems_.size();
  const auto chain_starts_at = [&](std::size_t i) {
    return is_operator(elems_[i]) && (i == 0 || !is_operator(elems_[i - 1]));
  };
  int chains = 0;
  for (std::size_t i = 0; i < len; ++i) chains += chain_starts_at(i) ? 1 : 0;
  if (chains == 0) return false;
  int k = rng.next_int(0, chains - 1);
  std::size_t begin = 0;
  while (!chain_starts_at(begin) || k-- > 0) ++begin;
  for (std::size_t i = begin; i < len && is_operator(elems_[i]); ++i) {
    elems_[i] = complement_op(elems_[i]);
  }
  return true;
}

bool PolishExpression::move_swap_operand_operator(Rng& rng) {
  // Candidate positions i where elems[i], elems[i+1] form an
  // operand/operator (or operator/operand) pair whose swap keeps the
  // expression valid. Try a random candidate; accept the first legal one.
  const std::size_t len = elems_.size();
  const auto is_candidate = [&](std::size_t i) {
    return is_operator(elems_[i]) != is_operator(elems_[i + 1]);
  };
  std::size_t candidates = 0;
  for (std::size_t i = 0; i + 1 < len; ++i) candidates += is_candidate(i) ? 1 : 0;
  if (candidates == 0) return false;
  // Random rotation through candidates so the move is unbiased but still
  // finds a legal swap when one exists: start at the drawn candidate and
  // walk the rest in position order, wrapping around.
  std::size_t skip = rng.next_below(candidates);
  std::size_t i = 0;
  while (!is_candidate(i) || skip-- > 0) ++i;
  for (std::size_t t = 0; t < candidates; ++t) {
    std::swap(elems_[i], elems_[i + 1]);
    if (is_valid()) return true;
    std::swap(elems_[i], elems_[i + 1]);
    do {
      i = i + 2 < len ? i + 1 : 0;
    } while (!is_candidate(i));
  }
  return false;
}

bool PolishExpression::perturb(Rng& rng) {
  switch (rng.next_int(0, 2)) {
    case 0: return move_swap_operands(rng);
    case 1: return move_invert_chain(rng);
    default: return move_swap_operand_operator(rng);
  }
}

std::string PolishExpression::to_string() const {
  std::string out;
  for (const int e : elems_) {
    if (!out.empty()) out.push_back(' ');
    if (e == kOpH) {
      out.push_back('H');
    } else if (e == kOpV) {
      out.push_back('V');
    } else {
      out += std::to_string(e);
    }
  }
  return out;
}

std::uint64_t normalized_expression_count(int operand_count) {
  if (operand_count < 1) return 0;
  if (operand_count > 12) return std::numeric_limits<std::uint64_t>::max();
  // Large Schroeder numbers: S(0) = 1, S(1) = 2 and
  // (k+1) S(k) = 3(2k-1) S(k-1) - (k-2) S(k-2); exact in 64 bits here.
  const auto n = static_cast<std::uint64_t>(operand_count);
  std::uint64_t prev = 1, schroeder = 1;  // S(k-2), S(k-1)
  std::uint64_t factorial = 1;
  for (std::uint64_t k = 1; k < n; ++k) {
    const std::uint64_t next =
        k == 1 ? 2 : (3 * (2 * k - 1) * schroeder - (k - 2) * prev) / (k + 1);
    prev = schroeder;
    schroeder = next;
    factorial *= k + 1;
  }
  return factorial * schroeder;
}

namespace {

// Base-5 digits: operands 0..2, then H and V. Distinct for the
// expressions of one operand count <= 3 (at most 5 elements: < 5^5).
std::uint16_t expression_key(const PolishExpression& expr) {
  std::uint32_t key = 0;
  for (const int e : expr.elements()) {
    key = key * 5 + static_cast<std::uint32_t>(e == kOpH ? 3 : e == kOpV ? 4 : e);
  }
  return static_cast<std::uint16_t>(key);
}

}  // namespace

ExpressionSpaceTracker::ExpressionSpaceTracker(int operand_count) {
  const std::uint64_t size = normalized_expression_count(operand_count);
  if (size <= kCapacity) size_ = static_cast<std::size_t>(size);
}

void ExpressionSpaceTracker::record(const PolishExpression& expr) {
  if (!tracking() || seen_ == size_) return;
  assert(expr.is_valid() && expr.size() <= 5);
  const std::uint16_t key = expression_key(expr);
  const auto seen_end = keys_.begin() + static_cast<std::ptrdiff_t>(seen_);
  if (std::find(keys_.begin(), seen_end, key) == seen_end) keys_[seen_++] = key;
}

SlicingTree SlicingTree::from_polish(const PolishExpression& expr) {
  SlicingTree tree;
  std::vector<int> stack;
  for (const int e : expr.elements()) {
    if (is_operator(e)) {
      if (stack.size() < 2) throw std::invalid_argument("invalid polish expression");
      const int right = stack.back();
      stack.pop_back();
      const int left = stack.back();
      stack.pop_back();
      Node node;
      node.left = left;
      node.right = right;
      node.op = e;
      tree.nodes.push_back(node);
      stack.push_back(static_cast<int>(tree.nodes.size()) - 1);
    } else {
      Node node;
      node.leaf = e;
      tree.nodes.push_back(node);
      stack.push_back(static_cast<int>(tree.nodes.size()) - 1);
    }
  }
  if (stack.size() != 1) throw std::invalid_argument("invalid polish expression");
  tree.root = stack.back();
  return tree;
}

}  // namespace hidap
