#pragma once
// Compressed sparse rows: items grouped by a dense key, read back as one
// span per key and built by one stable counting sort.

#include <cstdint>
#include <span>
#include <vector>

namespace hidap {

template <typename T>
class Csr {
 public:
  /// Groups the items `each` yields into rows 0..keys-1. `each(emit)`
  /// must call emit(key, item) for every item, in the same sequence both
  /// times it runs (once to count, once to fill); a row keeps its items
  /// in that sequence.
  template <typename Each>
  static Csr group(std::size_t keys, Each&& each) {
    Csr csr;
    csr.start_.assign(keys + 1, 0);
    each([&](std::size_t key, const T&) { ++csr.start_[key + 1]; });
    for (std::size_t k = 0; k < keys; ++k) csr.start_[k + 1] += csr.start_[k];
    csr.items_.resize(csr.start_[keys]);
    std::vector<std::uint32_t> next(csr.start_.begin(), csr.start_.end() - 1);
    each([&](std::size_t key, const T& item) { csr.items_[next[key]++] = item; });
    return csr;
  }

  std::span<const T> operator[](std::size_t key) const {
    return {items_.data() + start_[key], items_.data() + start_[key + 1]};
  }
  std::size_t rows() const { return start_.empty() ? 0 : start_.size() - 1; }
  std::size_t size() const { return items_.size(); }

 private:
  std::vector<std::uint32_t> start_;
  std::vector<T> items_;
};

}  // namespace hidap
