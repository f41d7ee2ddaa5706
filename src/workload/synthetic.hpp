#pragma once
// Synthetic workloads beyond the paper's two test programs.
//
// Section 3 motivates them: "In real life computations, the parallelism may
// wane and rise as computation progresses ... may rise and fall in cycles."
// SyntheticTree generates random trees with controllable branching and
// imbalance; BurstWorkload chains several waves of parallelism so the
// schemes are exercised on the rise-and-fall-in-cycles pattern the paper
// only extrapolates to.
//
// Expansion is a pure function of the GoalSpec: each node carries a 64-bit
// hash (spec.a) from which its subtree shape is derived. This keeps runs
// reproducible and lets tests walk the tree independently of the machine.

#include <cstdint>

#include "util/spec.hpp"
#include "workload/workload.hpp"

namespace oracle::workload {

struct SyntheticParams {
  std::uint64_t seed = 1;
  std::uint32_t max_depth = 10;     // absolute depth cap
  std::uint32_t branch_min = 2;     // children per interior node, inclusive
  std::uint32_t branch_max = 2;
  double leaf_bias = 0.15;          // extra leaf probability per level
  sim::Duration leaf_cost_min = 5;  // leaf costs drawn uniformly
  sim::Duration leaf_cost_max = 20;
};

/// The "synthetic:" keys. The labelled rows are the ones the name format
/// "synthetic-s1-d10-b2..2" shows; the others follow it when they differ
/// from their defaults.
inline constexpr util::SpecKey<SyntheticParams> kSyntheticKeys[] = {
    {.key = "seed", .field = &SyntheticParams::seed, .label = "s"},
    {.key = "depth", .field = &SyntheticParams::max_depth, .min = 1, .max = 40,
     .label = "d"},
    {.key = "branchmin", .field = &SyntheticParams::branch_min, .min = 1,
     .max = 16, .label = "b"},
    {.key = "branchmax", .field = &SyntheticParams::branch_max, .min = 1,
     .max = 16, .label = "b"},
    {.key = "leafbias", .field = &SyntheticParams::leaf_bias, .min = 0,
     .max = 1},
    {.key = "leafmin", .field = &SyntheticParams::leaf_cost_min, .min = 1},
    {.key = "leafmax", .field = &SyntheticParams::leaf_cost_max, .min = 1},
};
inline constexpr util::Spec<SyntheticParams> kSyntheticSpec{"synthetic",
                                                            kSyntheticKeys};

class SyntheticTree : public Workload {
 public:
  explicit SyntheticTree(const SyntheticParams& params,
                         const CostModel& costs = {});

  std::string name() const override;
  GoalSpec root() const override;
  Expansion expand(const GoalSpec& spec) const override;

  const SyntheticParams& params() const noexcept { return params_; }

 private:
  SyntheticParams params_;
  CostModel costs_;
};

/// BurstWorkload's shape and leaf-cost jitter seed.
struct BurstParams {
  std::uint32_t phases = 4;
  std::uint32_t width = 6;  // leaves per burst = 2^width
  std::uint64_t seed = 1;
};

/// The "burst:" keys. The labelled rows are the ones the name format
/// "burst-p4-w6" shows; the seed follows it when it is not 1.
inline constexpr util::SpecKey<BurstParams> kBurstKeys[] = {
    {.key = "phases", .field = &BurstParams::phases, .min = 1, .max = 64,
     .label = "p"},
    {.key = "width", .field = &BurstParams::width, .min = 1, .max = 16,
     .label = "w"},
    {.key = "seed", .field = &BurstParams::seed},
};
inline constexpr util::Spec<BurstParams> kBurstSpec{"burst", kBurstKeys};

/// K sequential "phases", each a balanced binary tree of the given width:
/// the root spawns phase trees one after another (child i+1 only runs after
/// child i completes is *not* expressible in a pure tree, so instead the
/// root chains K deep spines whose subtrees bulge and shrink — parallelism
/// rises and falls K times over the run).
class BurstWorkload : public Workload {
 public:
  BurstWorkload(std::uint32_t phases, std::uint32_t width,
                std::uint64_t seed = 1, const CostModel& costs = {});

  std::string name() const override;
  GoalSpec root() const override;
  Expansion expand(const GoalSpec& spec) const override;

  std::uint32_t phases() const noexcept { return params_.phases; }
  std::uint32_t width() const noexcept { return params_.width; }

 private:
  BurstParams params_;
  CostModel costs_;
};

}  // namespace oracle::workload
