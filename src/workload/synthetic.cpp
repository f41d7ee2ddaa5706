#include "workload/synthetic.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace oracle::workload {

namespace {

/// Stateless mixing of a parent hash and a child index.
std::uint64_t mix(std::uint64_t h, std::uint64_t salt) {
  SplitMix64 sm(h ^ (0x9e3779b97f4a7c15ULL * (salt + 1)));
  return sm.next();
}

}  // namespace

// ---------------------------------------------------------------------------
// SyntheticTree
// ---------------------------------------------------------------------------

SyntheticTree::SyntheticTree(const SyntheticParams& params, const CostModel& costs)
    : params_(params), costs_(costs) {
  kSyntheticSpec.check(params);
  ORACLE_REQUIRE(params.branch_max >= params.branch_min,
                 "branch_max must be >= branch_min");
  ORACLE_REQUIRE(params.leaf_cost_max >= params.leaf_cost_min,
                 "bad leaf cost range");
  // Guard against explosive expected sizes: E[children] * (1 - bias) < 2^40
  // is not checkable in general, so cap breadth * depth instead.
  ORACLE_REQUIRE(params.branch_max == 1 || params.max_depth <= 30,
                 "max_depth > 30 with branching would explode");
}

std::string SyntheticTree::name() const {
  return strfmt("synthetic-s%llu-d%u-b%u..%u",
                static_cast<unsigned long long>(params_.seed),
                params_.max_depth, params_.branch_min, params_.branch_max) +
         kSyntheticSpec.extras(params_);
}

GoalSpec SyntheticTree::root() const {
  return GoalSpec{static_cast<std::int64_t>(mix(params_.seed, 0)), 0, 0};
}

Expansion SyntheticTree::expand(const GoalSpec& spec) const {
  const auto h = static_cast<std::uint64_t>(spec.a);
  SplitMix64 sm(h);
  Expansion e;

  const double leaf_p =
      std::min(1.0, params_.leaf_bias * static_cast<double>(spec.depth));
  const double roll =
      static_cast<double>(sm.next() >> 11) * 0x1.0p-53;  // uniform [0,1)
  if (spec.depth >= params_.max_depth || roll < leaf_p) {
    e.is_leaf = true;
    const auto span = static_cast<std::uint64_t>(params_.leaf_cost_max -
                                                 params_.leaf_cost_min + 1);
    e.exec_cost = params_.leaf_cost_min +
                  static_cast<sim::Duration>(sm.next() % span);
    return e;
  }

  e.is_leaf = false;
  e.exec_cost = costs_.split_cost;
  e.combine_cost = costs_.combine_cost;
  const std::uint32_t breadth =
      params_.branch_min +
      static_cast<std::uint32_t>(sm.next() %
                                 (params_.branch_max - params_.branch_min + 1));
  e.children.reserve(breadth);
  for (std::uint32_t i = 0; i < breadth; ++i) {
    e.children.push_back(GoalSpec{
        static_cast<std::int64_t>(mix(h, i + 1)), 0, spec.depth + 1});
  }
  return e;
}

// ---------------------------------------------------------------------------
// BurstWorkload
// ---------------------------------------------------------------------------
//
// Tree shape (pure function of the spec):
//   SPINE(k):  children = [CHAIN(k * stagger, k), SPINE(k+1) if k+1 < phases]
//   CHAIN(j,k): one child, CHAIN(j-1,k), until j == 0, then BURST(width,k)
//   BURST(d,k): full binary tree of depth d
// The unary chains serialize, staggering burst k by ~k*stagger split costs,
// so system parallelism rises and falls `phases` times over a run.

namespace {
enum BurstRole : std::int64_t { kSpine = 1, kChain = 2, kBurst = 3 };

std::int64_t pack(BurstRole role, std::uint32_t x, std::uint32_t y) {
  return (static_cast<std::int64_t>(role) << 48) |
         (static_cast<std::int64_t>(x) << 24) | static_cast<std::int64_t>(y);
}
BurstRole role_of(std::int64_t a) { return static_cast<BurstRole>(a >> 48); }
std::uint32_t x_of(std::int64_t a) {
  return static_cast<std::uint32_t>((a >> 24) & 0xFFFFFF);
}
std::uint32_t y_of(std::int64_t a) {
  return static_cast<std::uint32_t>(a & 0xFFFFFF);
}
}  // namespace

BurstWorkload::BurstWorkload(std::uint32_t phases, std::uint32_t width,
                             std::uint64_t seed, const CostModel& costs)
    : params_{phases, width, seed}, costs_(costs) {
  kBurstSpec.check(params_);
}

std::string BurstWorkload::name() const {
  return strfmt("burst-p%u-w%u", params_.phases, params_.width) +
         kBurstSpec.extras(params_);
}

GoalSpec BurstWorkload::root() const { return GoalSpec{pack(kSpine, 0, 0), 0, 0}; }

Expansion BurstWorkload::expand(const GoalSpec& spec) const {
  Expansion e;
  e.is_leaf = false;
  e.exec_cost = costs_.split_cost;
  e.combine_cost = costs_.combine_cost;
  const std::uint32_t stagger = (1u << params_.width) / 2 + 1;

  switch (role_of(spec.a)) {
    case kSpine: {
      const std::uint32_t k = x_of(spec.a);
      e.children.push_back(GoalSpec{pack(kChain, k * stagger, k), 0, spec.depth + 1});
      if (k + 1 < params_.phases)
        e.children.push_back(GoalSpec{pack(kSpine, k + 1, 0), 0, spec.depth + 1});
      return e;
    }
    case kChain: {
      const std::uint32_t j = x_of(spec.a);
      const std::uint32_t k = y_of(spec.a);
      if (j == 0) {
        e.children.push_back(GoalSpec{pack(kBurst, params_.width, k), 0, spec.depth + 1});
      } else {
        e.children.push_back(GoalSpec{pack(kChain, j - 1, k), 0, spec.depth + 1});
      }
      return e;
    }
    case kBurst: {
      const std::uint32_t d = x_of(spec.a);
      const std::uint32_t k = y_of(spec.a);
      if (d == 0) {
        e.is_leaf = true;
        e.children.clear();
        e.combine_cost = 0;
        // Mild per-leaf cost jitter keyed off (seed, k, depth) keeps bursts
        // from being perfectly synchronous.
        SplitMix64 sm(params_.seed ^ (static_cast<std::uint64_t>(k) << 32) ^ spec.depth);
        e.exec_cost = costs_.leaf_cost + static_cast<sim::Duration>(sm.next() % 5);
        return e;
      }
      e.children.push_back(GoalSpec{pack(kBurst, d - 1, k), 0, spec.depth + 1});
      e.children.push_back(GoalSpec{pack(kBurst, d - 1, k), 1, spec.depth + 1});
      return e;
    }
  }
  ORACLE_ASSERT_MSG(false, "corrupt BurstWorkload goal spec");
  return e;
}

}  // namespace oracle::workload
