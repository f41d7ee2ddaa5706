// Tests for the Simulation wrapper: periodic samplers.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/simulation.hpp"

namespace oracle::sim {
namespace {

TEST(Simulation, SamplerFiresWhileWorkPending) {
  Simulation sim;
  std::vector<SimTime> samples;
  // Keep the sim alive until t = 50 with a chain of events.
  std::function<void()> chain = [&] {
    if (sim.now() < 50) sim.scheduler().schedule_after(10, chain);
  };
  sim.scheduler().schedule_at(0, chain);
  sim.add_sampler(10, [&](SimTime t) { samples.push_back(t); });
  sim.run();
  ASSERT_GE(samples.size(), 4u);
  EXPECT_EQ(samples.front(), 0);
  for (std::size_t i = 1; i < samples.size(); ++i)
    EXPECT_EQ(samples[i] - samples[i - 1], 10);
}

}  // namespace
}  // namespace oracle::sim
