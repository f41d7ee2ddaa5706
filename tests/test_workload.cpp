// Tests for the workload layer: fib/dc tree shapes, synthetic trees,
// burst workloads, the tree summarizer, and the spec factory.

#include <gtest/gtest.h>

#include <set>

#include "util/error.hpp"
#include "workload/dc.hpp"
#include "workload/fib.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace oracle::workload {
namespace {

// --------------------------------------------------------------------------
// Fib
// --------------------------------------------------------------------------

TEST(Fib, ValueIterative) {
  EXPECT_EQ(FibWorkload::fib_value(0), 0u);
  EXPECT_EQ(FibWorkload::fib_value(1), 1u);
  EXPECT_EQ(FibWorkload::fib_value(10), 55u);
  EXPECT_EQ(FibWorkload::fib_value(18), 2584u);
}

TEST(Fib, TreeSizeClosedForm) {
  // 2*fib(n+1) - 1; the paper's six sizes give 41 .. 8361 goals.
  EXPECT_EQ(FibWorkload::tree_size(7), 41u);
  EXPECT_EQ(FibWorkload::tree_size(9), 109u);
  EXPECT_EQ(FibWorkload::tree_size(11), 287u);
  EXPECT_EQ(FibWorkload::tree_size(13), 753u);
  EXPECT_EQ(FibWorkload::tree_size(15), 1973u);
  EXPECT_EQ(FibWorkload::tree_size(18), 8361u);
}

TEST(Fib, SummarizeMatchesClosedForm) {
  for (std::uint32_t n : {0u, 1u, 2u, 7u, 11u}) {
    const FibWorkload w(n);
    const TreeSummary s = w.summarize();
    EXPECT_EQ(s.total_goals, FibWorkload::tree_size(n)) << "fib " << n;
    // Leaves of the fib call tree: fib(n+1) (nodes with a < 2).
    EXPECT_EQ(s.leaf_goals, FibWorkload::fib_value(n + 1)) << "fib " << n;
  }
}

TEST(Fib, ExpansionStructure) {
  const FibWorkload w(5);
  const Expansion root = w.expand(w.root());
  EXPECT_FALSE(root.is_leaf);
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].a, 4);
  EXPECT_EQ(root.children[1].a, 3);
  EXPECT_EQ(root.children[0].depth, 1u);

  const Expansion leaf = w.expand(GoalSpec{1, 0, 3});
  EXPECT_TRUE(leaf.is_leaf);
  EXPECT_TRUE(leaf.children.empty());
}

TEST(Fib, CostsApplied) {
  CostModel costs{50, 20, 30};
  const FibWorkload w(4, costs);
  EXPECT_EQ(w.expand(GoalSpec{0, 0, 1}).exec_cost, 50);
  const Expansion inner = w.expand(w.root());
  EXPECT_EQ(inner.exec_cost, 20);
  EXPECT_EQ(inner.combine_cost, 30);
}

TEST(Fib, UnbalancedTree) {
  // The paper: "the fibonacci yields a not-so-well-balanced tree".
  const FibWorkload w(10);
  const TreeSummary s = w.summarize();
  // Height n-1 for fib(n) (leftmost spine), far above log2(size).
  EXPECT_EQ(s.height, 9u);
}

// --------------------------------------------------------------------------
// Dc
// --------------------------------------------------------------------------

TEST(Dc, TreeSizeClosedForm) {
  EXPECT_EQ(DcWorkload::tree_size(1, 21), 41u);
  EXPECT_EQ(DcWorkload::tree_size(1, 55), 109u);
  EXPECT_EQ(DcWorkload::tree_size(1, 144), 287u);
  EXPECT_EQ(DcWorkload::tree_size(1, 377), 753u);
  EXPECT_EQ(DcWorkload::tree_size(1, 987), 1973u);
  EXPECT_EQ(DcWorkload::tree_size(1, 4181), 8361u);
}

TEST(Dc, PaperSizesMatchFibSizes) {
  // The paper chose dc sizes so both programs yield equal tree sizes.
  EXPECT_EQ(DcWorkload::tree_size(1, 21), FibWorkload::tree_size(7));
  EXPECT_EQ(DcWorkload::tree_size(1, 4181), FibWorkload::tree_size(18));
}

TEST(Dc, SummarizeMatchesClosedForm) {
  const DcWorkload w(1, 37);
  const TreeSummary s = w.summarize();
  EXPECT_EQ(s.total_goals, DcWorkload::tree_size(1, 37));
  EXPECT_EQ(s.leaf_goals, 37u);
}

TEST(Dc, BalancedTreeHeight) {
  // dc over 64 leaves: a perfectly balanced split -> height 6.
  const DcWorkload w(1, 64);
  EXPECT_EQ(w.summarize().height, 6u);
}

TEST(Dc, ExpansionSplitsInterval) {
  const DcWorkload w(1, 10);
  const Expansion e = w.expand(w.root());
  ASSERT_EQ(e.children.size(), 2u);
  EXPECT_EQ(e.children[0].a, 1);
  EXPECT_EQ(e.children[0].b, 5);
  EXPECT_EQ(e.children[1].a, 6);
  EXPECT_EQ(e.children[1].b, 10);
}

TEST(Dc, SingletonIsLeaf) {
  const DcWorkload w(3, 3);
  EXPECT_TRUE(w.expand(w.root()).is_leaf);
  EXPECT_EQ(w.summarize().total_goals, 1u);
}

TEST(Dc, RejectsInvertedInterval) {
  EXPECT_THROW(DcWorkload(5, 4), ConfigError);
}

// --------------------------------------------------------------------------
// Synthetic
// --------------------------------------------------------------------------

TEST(Synthetic, DeterministicExpansion) {
  SyntheticParams p;
  p.seed = 42;
  const SyntheticTree a(p), b(p);
  const TreeSummary sa = a.summarize(), sb = b.summarize();
  EXPECT_EQ(sa.total_goals, sb.total_goals);
  EXPECT_EQ(sa.total_work, sb.total_work);
}

TEST(Synthetic, DifferentSeedsDifferentTrees) {
  SyntheticParams p1, p2;
  p1.seed = 1;
  p2.seed = 2;
  const auto s1 = SyntheticTree(p1).summarize();
  const auto s2 = SyntheticTree(p2).summarize();
  EXPECT_NE(s1.total_goals, s2.total_goals);
}

TEST(Synthetic, RespectsDepthCap) {
  SyntheticParams p;
  p.max_depth = 4;
  p.leaf_bias = 0.0;  // never leaf early
  const SyntheticTree w(p);
  const TreeSummary s = w.summarize();
  EXPECT_EQ(s.height, 4u);
  EXPECT_EQ(s.total_goals, 31u);  // full binary tree of depth 4
}

TEST(Synthetic, LeafCostsWithinRange) {
  SyntheticParams p;
  p.max_depth = 6;
  p.leaf_cost_min = 7;
  p.leaf_cost_max = 9;
  const SyntheticTree w(p);
  // Walk and check every leaf cost.
  std::vector<GoalSpec> stack{w.root()};
  while (!stack.empty()) {
    const GoalSpec spec = stack.back();
    stack.pop_back();
    const Expansion e = w.expand(spec);
    if (e.is_leaf) {
      EXPECT_GE(e.exec_cost, 7);
      EXPECT_LE(e.exec_cost, 9);
    } else {
      for (const auto& c : e.children) stack.push_back(c);
    }
  }
}

TEST(Synthetic, BranchingWithinBounds) {
  SyntheticParams p;
  p.branch_min = 2;
  p.branch_max = 4;
  p.max_depth = 6;
  const SyntheticTree w(p);
  std::vector<GoalSpec> stack{w.root()};
  while (!stack.empty()) {
    const GoalSpec spec = stack.back();
    stack.pop_back();
    const Expansion e = w.expand(spec);
    if (!e.is_leaf) {
      EXPECT_GE(e.children.size(), 2u);
      EXPECT_LE(e.children.size(), 4u);
      for (const auto& c : e.children) stack.push_back(c);
    }
  }
}

TEST(Synthetic, RejectsBadParams) {
  SyntheticParams p;
  p.branch_min = 0;
  EXPECT_THROW(SyntheticTree{p}, ConfigError);
  p = SyntheticParams{};
  p.branch_max = 1;  // < branch_min = 2
  EXPECT_THROW(SyntheticTree{p}, ConfigError);
  p = SyntheticParams{};
  p.leaf_bias = 1.5;
  EXPECT_THROW(SyntheticTree{p}, ConfigError);
}

// --------------------------------------------------------------------------
// Burst
// --------------------------------------------------------------------------

TEST(Burst, TreeSizeScalesWithPhases) {
  const auto one = BurstWorkload(1, 4).summarize();
  const auto four = BurstWorkload(4, 4).summarize();
  EXPECT_GT(four.total_goals, 3 * one.total_goals);
}

TEST(Burst, ContainsFullBinaryBursts) {
  // Each phase contributes a full binary tree of depth `width`:
  // at least phases * (2^(width+1) - 1) burst nodes.
  const std::uint32_t phases = 3, width = 5;
  const auto s = BurstWorkload(phases, width).summarize();
  EXPECT_GE(s.total_goals, phases * ((2u << width) - 1));
}

TEST(Burst, DeterministicAcrossInstances) {
  const auto a = BurstWorkload(4, 6, 9).summarize();
  const auto b = BurstWorkload(4, 6, 9).summarize();
  EXPECT_EQ(a.total_goals, b.total_goals);
  EXPECT_EQ(a.total_work, b.total_work);
}

TEST(Burst, ChainsSerializePhases) {
  // The critical path must grow with the phase count (staggering chains).
  const auto p1 = BurstWorkload(1, 5).summarize();
  const auto p4 = BurstWorkload(4, 5).summarize();
  EXPECT_GT(p4.critical_path, p1.critical_path);
}

// --------------------------------------------------------------------------
// Summarize (generic)
// --------------------------------------------------------------------------

TEST(Summarize, WorkAndCriticalPathForTinyTree) {
  CostModel costs{100, 40, 40};
  const FibWorkload w(2, costs);  // root + 2 leaves
  const TreeSummary s = w.summarize();
  EXPECT_EQ(s.total_goals, 3u);
  EXPECT_EQ(s.leaf_goals, 2u);
  EXPECT_EQ(s.total_work, 40 + 40 + 100 + 100);
  // Critical path: split + one leaf + combine.
  EXPECT_EQ(s.critical_path, 40 + 100 + 40);
}

TEST(Summarize, CriticalPathLeqTotalWork) {
  for (const char* spec : {"fib:10", "dc:1:100", "burst:phases=2,width=4"}) {
    const auto w = make_workload(spec);
    const TreeSummary s = w->summarize();
    EXPECT_LE(s.critical_path, s.total_work) << spec;
    EXPECT_GT(s.critical_path, 0) << spec;
  }
}

// --------------------------------------------------------------------------
// Factory
// --------------------------------------------------------------------------

TEST(WorkloadFactory, ParsesAllKinds) {
  EXPECT_EQ(make_workload("fib:7")->name(), "fib-7");
  EXPECT_EQ(make_workload("dc:1:21")->name(), "dc-1-21");
  EXPECT_NE(make_workload("synthetic:seed=3,depth=5"), nullptr);
  EXPECT_NE(make_workload("burst:phases=2,width=3"), nullptr);
}

TEST(WorkloadFactory, CostSuffixOverrides) {
  const auto w = make_workload("fib:5;leaf=9,split=3,combine=4");
  const Expansion leaf = w->expand(GoalSpec{0, 0, 1});
  EXPECT_EQ(leaf.exec_cost, 9);
  const Expansion inner = w->expand(w->root());
  EXPECT_EQ(inner.exec_cost, 3);
  EXPECT_EQ(inner.combine_cost, 4);
}

TEST(WorkloadFactory, RejectsMalformed) {
  EXPECT_THROW(make_workload(""), ConfigError);
  EXPECT_THROW(make_workload("fib"), ConfigError);
  EXPECT_THROW(make_workload("fib:99"), ConfigError);
  EXPECT_THROW(make_workload("dc:5"), ConfigError);
  EXPECT_THROW(make_workload("quicksort:10"), ConfigError);
  EXPECT_THROW(make_workload("fib:5;leaf=-3"), ConfigError);
}

TEST(WorkloadFactory, RejectsUnknownDuplicateAndOutOfRangeKeys) {
  for (const char* spec :
       {"synthetic:leafbais=0.1", "fib:9;leaff=2", "synthetic:branch=3",
        "burst:phase=2", "synthetic:seed=1,seed=2", "fib:9;leaf=1,LEAF=2",
        "synthetic:leafbias=high", "synthetic:depth=0", "synthetic:depth=41",
        "synthetic:branchmin=0", "synthetic:branchmin=17",
        "synthetic:branchmax=0", "synthetic:branchmax=17",
        "synthetic:leafbias=-0.1", "synthetic:leafbias=1.5",
        "synthetic:leafbias=nan", "synthetic:leafmin=0", "synthetic:leafmax=0",
        "synthetic:seed=-1", "burst:phases=0", "burst:phases=65",
        "burst:width=0", "burst:width=17", "burst:seed=-1", "fib:9;split=-1",
        "fib:9;combine=-1", "fib:9;leaf=1;split=2"}) {
    EXPECT_THROW(make_workload(spec), ConfigError) << spec;
    EXPECT_THROW(check_workload_spec(spec), ConfigError) << spec;
  }
  try {
    make_workload("synthetic:leafbais=0.1");
    FAIL() << "unknown key accepted";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("leafbias"), std::string::npos);
  }
}

TEST(WorkloadFactory, KeysAreCaseInsensitive) {
  const auto w = make_workload("synthetic:Seed=4,LEAFBIAS=0.25");
  const auto* s = dynamic_cast<const SyntheticTree*>(w.get());
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->params().seed, 4u);
  EXPECT_DOUBLE_EQ(s->params().leaf_bias, 0.25);
}

TEST(WorkloadFactory, NamesShowNonDefaultKeys) {
  EXPECT_EQ(make_workload("synthetic")->name(), "synthetic-s1-d10-b2..2");
  EXPECT_EQ(make_workload("synthetic:seed=3,branchmax=4")->name(),
            "synthetic-s3-d10-b2..4");
  EXPECT_EQ(make_workload("synthetic:seed=1,leafbias=0.5")->name(),
            "synthetic-s1-d10-b2..2(leafbias=0.5)");
  EXPECT_EQ(make_workload("synthetic:leafmax=30,leafmin=6")->name(),
            "synthetic-s1-d10-b2..2(leafmin=6,leafmax=30)");
  EXPECT_EQ(make_workload("burst")->name(), "burst-p4-w6");
  EXPECT_EQ(make_workload("burst:seed=2,phases=3")->name(),
            "burst-p3-w6(seed=2)");
}

TEST(WorkloadFactory, CheckLeavesWorkloadLimitsToTheBuild) {
  // fib:80 is well formed; only FibWorkload's size cap refuses it.
  EXPECT_NO_THROW(check_workload_spec("fib:80"));
  EXPECT_THROW(make_workload("fib:80"), ConfigError);
  EXPECT_THROW(check_workload_spec("fib:x"), ConfigError);
  EXPECT_THROW(check_workload_spec("quicksort:10"), ConfigError);
}

}  // namespace
}  // namespace oracle::workload
