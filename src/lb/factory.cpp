#include <string>

#include "lb/acwn.hpp"
#include "lb/baselines.hpp"
#include "lb/cwn.hpp"
#include "lb/gradient.hpp"
#include "lb/strategy.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace oracle::lb {

std::unique_ptr<Strategy> make_strategy(std::string_view spec) {
  const auto parts = split(trim(spec), ':');
  ORACLE_REQUIRE(!parts.empty() && !parts[0].empty(), "empty strategy spec");
  ORACLE_REQUIRE(parts.size() <= 2, "strategy spec has too many ':' sections");
  const std::string kind = to_lower(parts[0]);
  const std::string body = parts.size() == 2 ? parts[1] : "";

  if (kind == "cwn") return std::make_unique<Cwn>(kCwnSpec.parse(body));
  if (kind == "gm" || kind == "gradient")
    return std::make_unique<GradientModel>(kGmSpec.parse(body));
  if (kind == "acwn") return std::make_unique<Acwn>(kAcwnSpec.parse(body));
  if (kind == "steal" || kind == "ws")
    return std::make_unique<WorkStealing>(kStealSpec.parse(body));
  const bool keyless = kind == "local" || kind == "random" ||
                       kind == "roundrobin" || kind == "rr";
  ORACLE_REQUIRE(!keyless || trim(body).empty(), kind + ": takes no keys");
  if (kind == "local") return std::make_unique<LocalOnly>();
  if (kind == "random") return std::make_unique<RandomPush>();
  if (kind == "roundrobin" || kind == "rr")
    return std::make_unique<RoundRobinPush>();
  throw ConfigError("unknown strategy '" + kind +
                    "' (expected cwn|gm|acwn|local|random|roundrobin|steal)");
}

}  // namespace oracle::lb
