// Parallel runtime tests: pool lifecycle, exception propagation,
// parallel_for correctness on degenerate and large ranges, nested
// sections, and the end-to-end determinism guarantee (compare_flows is
// bit-identical at 1 and N threads).

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <vector>

#include "eval/flows.hpp"
#include "gen/suite.hpp"
#include "runtime/thread_pool.hpp"
#include "util/log.hpp"

namespace hidap {
namespace {

// Force an 8-lane global pool before its first use so every test that
// goes through the free parallel_for/compare_flows path genuinely
// threads, even on single-core CI runners (oversubscription is fine --
// determinism must not depend on the host's core count).
const int kForcedPoolLanes = [] {
  ThreadPool::set_default_thread_count(8);
  return 8;
}();

TEST(ThreadPool, GlobalPoolHonorsForcedLaneCount) {
  EXPECT_EQ(ThreadPool::default_thread_count(), kForcedPoolLanes);
  EXPECT_EQ(ThreadPool::global().size(), kForcedPoolLanes);
}

TEST(ThreadPool, LifecycleAcrossSizes) {
  for (const int size : {1, 2, 4, 8}) {
    ThreadPool pool(size);
    EXPECT_EQ(pool.size(), size);
    std::atomic<int> ran{0};
    pool.parallel_for(16, [&](std::size_t) { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), 16);
  }  // destructor joins workers; ASan/TSan watch for leaks and races
}

TEST(ThreadPool, DefaultSizeIsPositive) {
  EXPECT_GE(ThreadPool::default_thread_count(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  std::atomic<int> ran{0};
  parallel_for(0, [&](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
}

TEST(ParallelFor, SingleElementRange) {
  std::vector<int> hits(1, 0);
  parallel_for(1, [&](std::size_t i) { hits[i] = 1; });
  EXPECT_EQ(hits[0], 1);
}

TEST(ParallelFor, LargeRangeRunsEveryIndexExactlyOnce) {
  constexpr std::size_t kN = 10000;
  std::vector<int> counts(kN, 0);
  parallel_for(kN, [&](std::size_t i) { ++counts[i]; });  // slot-exclusive writes
  for (std::size_t i = 0; i < kN; ++i) ASSERT_EQ(counts[i], 1) << "index " << i;
}

TEST(ParallelFor, PropagatesLowestIndexException) {
  ThreadPool pool(4);
  for (int trial = 0; trial < 3; ++trial) {
    std::atomic<int> ran{0};
    try {
      pool.parallel_for(64, [&](std::size_t i) {
        ran.fetch_add(1);
        if (i % 2 == 1) throw std::out_of_range("odd index " + std::to_string(i));
      });
      FAIL() << "expected an exception";
    } catch (const std::out_of_range& e) {
      // All indices still execute; the lowest thrower (index 1) wins.
      EXPECT_EQ(ran.load(), 64);
      EXPECT_STREQ(e.what(), "odd index 1");
    }
  }
}

TEST(ParallelFor, MaxThreadsOneMatchesSequentialOrder) {
  std::vector<std::size_t> order;
  parallel_for(8, [&](std::size_t i) { order.push_back(i); }, /*max_threads=*/1);
  ASSERT_EQ(order.size(), 8u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, NestedSectionsDoNotDeadlock) {
  ThreadPool pool(4);
  std::atomic<int> inner_total{0};
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(8, [&](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(ParallelInvoke, RunsEveryTask) {
  int a = 0, b = 0, c = 0;
  parallel_invoke({[&] { a = 1; }, [&] { b = 2; }, [&] { c = 3; }});
  EXPECT_EQ(a + b + c, 6);
}

FlowOptions quick_flow_options() {
  FlowOptions o;
  o.hidap.layout_anneal.moves_per_temperature = 40;
  o.hidap.layout_anneal.cooling = 0.8;
  o.hidap.layout_anneal.max_stagnant_temperatures = 3;
  o.hidap.shape_fp.anneal.moves_per_temperature = 30;
  o.hidap.shape_fp.anneal.cooling = 0.8;
  o.hidap.shape_fp.anneal.max_stagnant_temperatures = 3;
  o.handfp_effort = 1.0;
  o.handfp_seeds = 2;
  o.eval.place.solver_iterations = 20;
  return o;
}

// The ISSUE's acceptance guarantee, in miniature: the full 3-flow
// comparison (lambda sweep, seed x lambda sweep, nested pool sections)
// yields identical metrics with 1 thread and with an oversubscribed
// 8-lane pool.
TEST(Determinism, CompareFlowsIdenticalAtOneAndManyThreads) {
  set_log_level(LogLevel::Warn);
  const Design design = generate_circuit(fig1_spec());

  FlowOptions serial = quick_flow_options();
  serial.hidap.num_threads = 1;
  FlowOptions parallel = quick_flow_options();
  parallel.hidap.num_threads = 8;

  const FlowComparison a = compare_flows(design, serial);
  const FlowComparison b = compare_flows(design, parallel);

  const auto expect_identical = [](const Metrics& x, const Metrics& y) {
    EXPECT_EQ(x.wl_m, y.wl_m);
    EXPECT_EQ(x.wl_norm, y.wl_norm);
    EXPECT_EQ(x.grc_percent, y.grc_percent);
    EXPECT_EQ(x.wns_percent, y.wns_percent);
    EXPECT_EQ(x.tns_ns, y.tns_ns);
  };
  expect_identical(a.indeda, b.indeda);
  expect_identical(a.hidap, b.hidap);
  expect_identical(a.handfp, b.handfp);
}

}  // namespace
}  // namespace hidap
