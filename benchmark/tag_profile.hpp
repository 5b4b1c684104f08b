// Wall-clock attribution by engine event tag, built on the public
// sim::Engine::SetEventHook. The hook fires just before each event's
// callback, so the wall time between two consecutive hook calls is charged
// to the earlier event's tag: that is the callback's own work plus the
// engine's dispatch of the next event. A tag's time therefore includes
// everything its callback calls into (e.g. `tc.complete` runs the driver's
// slot-free callbacks, `nic.deliver` runs the stash into the cache model).
//
// Only meaningful on a single executor: with lanes > 1 the hook runs on
// several threads at once.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstring>
#include <unordered_map>

#include "sim/engine.hpp"

namespace tcbench {

/// Host wall seconds per layer of the stack, grouped from event tags.
struct LayerWall {
  double nic_s = 0;     ///< `nic.*`, `control.deliver`
  double switch_s = 0;  ///< `switch.*`
  double ucxs_s = 0;    ///< `ucxs.*`
  double rx_s = 0;      ///< `tc.process`: validate, relink, execute, cache
  double tx_s = 0;      ///< `tc.post`, `tc.inject`, `tc.complete`
  double driver_s = 0;  ///< every other tag (the benchmark's own pumps)
};

class TagProfile {
 public:
  explicit TagProfile(twochains::sim::Engine& engine) : engine_(engine) {
    engine_.SetEventHook([this](twochains::PicoTime, const char* tag) {
      const auto now = Clock::now();
      if (last_tag_ != nullptr) ns_[last_tag_] += (now - last_).count();
      last_ = now;
      last_tag_ = tag;
    });
  }
  ~TagProfile() { engine_.SetEventHook(nullptr); }
  TagProfile(const TagProfile&) = delete;
  TagProfile& operator=(const TagProfile&) = delete;

  /// Charges the time since the last event to its tag and groups every
  /// tag into its layer. Call once, right after the engine run returns.
  LayerWall Finish() {
    if (last_tag_ != nullptr) ns_[last_tag_] += (Clock::now() - last_).count();
    last_tag_ = nullptr;
    LayerWall wall;
    for (const auto& [tag, ns] : ns_) Layer(wall, tag) += ns * 1e-9;
    return wall;
  }

 private:
  using Clock = std::chrono::steady_clock;

  static bool Starts(const char* tag, const char* prefix) {
    return std::strncmp(tag, prefix, std::strlen(prefix)) == 0;
  }
  static bool Is(const char* tag, const char* name) {
    return std::strcmp(tag, name) == 0;
  }
  static double& Layer(LayerWall& wall, const char* tag) {
    if (Starts(tag, "nic.") || Is(tag, "control.deliver")) return wall.nic_s;
    if (Starts(tag, "switch.")) return wall.switch_s;
    if (Starts(tag, "ucxs.")) return wall.ucxs_s;
    if (Is(tag, "tc.process")) return wall.rx_s;
    if (Is(tag, "tc.post") || Is(tag, "tc.inject") || Is(tag, "tc.complete")) {
      return wall.tx_s;
    }
    return wall.driver_s;
  }

  twochains::sim::Engine& engine_;
  // Keyed by the tag pointer: tags are string literals, so the hot path
  // never hashes or compares strings. Equal literals from different
  // translation units may land in separate entries; Finish() groups them.
  std::unordered_map<const char*, std::int64_t> ns_;
  const char* last_tag_ = nullptr;
  Clock::time_point last_{};
};

}  // namespace tcbench
