#pragma once
// Abstract workload: an implicitly-defined computation tree.
//
// Expansion must be a pure function of the GoalSpec (no hidden state, no
// shared RNG) so that runs are reproducible regardless of the order in
// which PEs expand goals, and so tests can walk the tree independently.

#include <memory>
#include <string>
#include <string_view>

#include "workload/goal.hpp"

namespace oracle::workload {

class Workload {
 public:
  virtual ~Workload() = default;

  /// Short name for reports, e.g. "fib-18" or "dc-1-4181".
  virtual std::string name() const = 0;

  /// The root goal.
  virtual GoalSpec root() const = 0;

  /// Expand a goal: what it costs and what it spawns.
  virtual Expansion expand(const GoalSpec& spec) const = 0;

  /// Walk the whole tree (iteratively) and summarize it. O(tree size).
  TreeSummary summarize() const;
};

/// Build a workload from a spec string:
///   "fib:N"                      naive doubly-recursive Fibonacci
///   "dc:M:N"                     divide-and-conquer over [M, N]
///   "synthetic:seed=S,depth=D,branchmin=A,branchmax=B,leafbias=P,
///    leafmin=L,leafmax=H"        random tree (kSyntheticKeys)
///   "burst:phases=K,width=W,seed=S"   rise-and-fall cycles (kBurstKeys)
/// An optional trailing ";leaf=L,split=S,combine=C" overrides costs. The
/// key=value parts follow util::Spec: every key is optional, keys are
/// case-insensitive, and an unknown or repeated key is a ConfigError.
std::unique_ptr<Workload> make_workload(std::string_view spec);
std::unique_ptr<Workload> make_workload(std::string_view spec,
                                        const CostModel& costs);

/// Check `spec` against that grammar and the key tables without building
/// the workload. The workloads' own limits (fib:N's size cap, dc's
/// M <= N) are left to make_workload: a store may already hold results
/// for a spec too large to run again.
void check_workload_spec(std::string_view spec);

}  // namespace oracle::workload
