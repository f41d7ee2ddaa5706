#pragma once
// Load-distribution strategy interface.
//
// A Strategy decides *where goals go*; the Machine provides mechanism
// (channels, queues, routing, clocks). The two decision points are goal
// creation (CWN contracts out immediately; GM enqueues locally) and goal
// message arrival (CWN keeps or forwards; GM always keeps). Strategies may
// additionally run periodic co-processor work (GM's gradient process, CWN's
// load broadcast) and react to control messages.

#include <memory>
#include <string>
#include <string_view>

#include "machine/message.hpp"
#include "topo/topology.hpp"

namespace oracle::machine {
class Machine;
}

namespace oracle::lb {

class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Short name with parameters, e.g. "cwn(r=9,h=2)".
  virtual std::string name() const = 0;

  /// Bind to a machine; allocate per-PE state. Called exactly once, before
  /// the simulation starts.
  virtual void attach(machine::Machine& m) { machine_ = &m; }

  /// Simulation is about to run (t = 0): schedule periodic processes here.
  virtual void on_start() {}

  /// A new subgoal was created on `pe`. The strategy must either keep it
  /// (Machine::keep_goal) or send it to a neighbor (Machine::send_goal).
  virtual void on_goal_created(topo::NodeId pe, machine::Message msg) = 0;

  /// A goal message arrived at `pe` from a neighbor. Keep or forward.
  virtual void on_goal_arrived(topo::NodeId pe, machine::Message msg) = 0;

  /// A control message arrived at `pe` (co-processor path, no PE cost).
  virtual void on_control(topo::NodeId /*pe*/, const machine::Message& /*msg*/) {}

  /// Any message from immediate neighbor `from` carried a piggy-backed load
  /// value (MachineConfig::piggyback_load).
  virtual void on_neighbor_load(topo::NodeId /*pe*/, topo::NodeId /*from*/,
                                std::int64_t /*load*/) {}

  /// `pe` just became idle (finished an activation, ready queue empty).
  virtual void on_pe_idle(topo::NodeId /*pe*/) {}

 protected:
  machine::Machine& machine() const {
    return *machine_;
  }

 private:
  machine::Machine* machine_ = nullptr;
};

/// Build a strategy from a spec string:
///   "cwn:radius=9,horizon=2,interval=10"                    (kCwnKeys)
///   "gm:hwm=2,lwm=1,interval=20"                            (kGmKeys)
///   "acwn:radius=9,horizon=2,saturation=3,redistribute=1"   (kAcwnKeys)
///   "steal:backoff=10"                                      (kStealKeys)
///   "local" | "random" | "roundrobin"
/// The key=value body follows util::Spec: every key is optional, keys are
/// case-insensitive, and an unknown, repeated or out-of-range key is a
/// ConfigError.
std::unique_ptr<Strategy> make_strategy(std::string_view spec);

}  // namespace oracle::lb
