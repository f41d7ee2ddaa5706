#include "util/error.hpp"
#include "util/spec.hpp"
#include "util/string_util.hpp"
#include "workload/dc.hpp"
#include "workload/fib.hpp"
#include "workload/synthetic.hpp"
#include "workload/workload.hpp"

namespace oracle::workload {

namespace {

constexpr util::SpecKey<CostModel> kCostKeys[] = {
    {.key = "leaf", .field = &CostModel::leaf_cost, .min = 0},
    {.key = "split", .field = &CostModel::split_cost, .min = 0},
    {.key = "combine", .field = &CostModel::combine_cost, .min = 0},
};
constexpr util::Spec<CostModel> kCostSpec{"workload costs", kCostKeys};

/// Parse `spec`, then build the workload unless `build` is false.
std::unique_ptr<Workload> parse(std::string_view spec, const CostModel& costs,
                                bool build) {
  // Optional ";leaf=..,split=..,combine=.." cost suffix.
  CostModel cm = costs;
  const auto top = split(trim(spec), ';');
  ORACLE_REQUIRE(!top.empty() && !top[0].empty(), "empty workload spec");
  ORACLE_REQUIRE(top.size() <= 2, "workload spec has more than one ';'");
  if (top.size() == 2) kCostSpec.parse(top[1], cm);

  const auto parts = split(top[0], ':');
  const std::string kind = to_lower(parts[0]);

  if (kind == "fib") {
    ORACLE_REQUIRE(parts.size() == 2, "usage: fib:N");
    const auto n = parse_int(parts[1], "fib argument");
    ORACLE_REQUIRE(n >= 0, "fib argument must be >= 0");
    if (!build) return nullptr;
    return std::make_unique<FibWorkload>(static_cast<std::uint32_t>(n), cm);
  }
  if (kind == "dc") {
    ORACLE_REQUIRE(parts.size() == 3, "usage: dc:M:N");
    const auto m = parse_int(parts[1], "dc M");
    const auto n = parse_int(parts[2], "dc N");
    if (!build) return nullptr;
    return std::make_unique<DcWorkload>(m, n, cm);
  }
  if (kind == "synthetic") {
    ORACLE_REQUIRE(parts.size() <= 2, "usage: synthetic:k=v,...");
    const auto p = kSyntheticSpec.parse(parts.size() == 2 ? parts[1] : "");
    if (!build) return nullptr;
    return std::make_unique<SyntheticTree>(p, cm);
  }
  if (kind == "burst") {
    ORACLE_REQUIRE(parts.size() <= 2, "usage: burst:k=v,...");
    const auto p = kBurstSpec.parse(parts.size() == 2 ? parts[1] : "");
    if (!build) return nullptr;
    return std::make_unique<BurstWorkload>(p.phases, p.width, p.seed, cm);
  }
  throw ConfigError("unknown workload kind '" + kind +
                    "' (expected fib|dc|synthetic|burst)");
}

}  // namespace

std::unique_ptr<Workload> make_workload(std::string_view spec,
                                        const CostModel& costs) {
  return parse(spec, costs, true);
}

void check_workload_spec(std::string_view spec) {
  parse(spec, CostModel{}, false);
}

std::unique_ptr<Workload> make_workload(std::string_view spec) {
  return make_workload(spec, CostModel{});
}

}  // namespace oracle::workload
