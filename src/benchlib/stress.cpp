#include "benchlib/stress.hpp"

#include <map>
#include <memory>
#include <vector>

#include "common/rng.hpp"

namespace twochains::bench {

namespace {

/// Pristine per-host steal configs, snapshotted by the first ApplyStress
/// on a fabric and consumed by ClearStress, so repeated applies never
/// overwrite the true defaults with boosted ones. The map is keyed by the
/// fabric's address, which can be reused after an unpaired destruction —
/// so each entry also records the per-host runtime addresses, and a
/// lookup whose runtimes no longer match is discarded as stale instead of
/// poisoning the new fabric with a dead one's defaults.
struct StressSnapshot {
  std::vector<const core::Runtime*> runtimes;
  std::vector<core::StealConfig> steal;
};

std::map<const core::Fabric*, StressSnapshot>& StressSnapshots() {
  static std::map<const core::Fabric*, StressSnapshot> snapshots;
  return snapshots;
}

bool Matches(const StressSnapshot& snapshot, core::Fabric& fabric) {
  if (snapshot.runtimes.size() != fabric.size()) return false;
  for (std::uint32_t i = 0; i < fabric.size(); ++i) {
    if (snapshot.runtimes[i] != &fabric.runtime(i)) return false;
  }
  return true;
}

}  // namespace

void ApplyStress(core::Fabric& fabric, const StressConfig& config) {
  // Snapshot the wait-loop steal defaults once, then boost hysteresis
  // relative to the snapshot (not the current value): applying twice must
  // not compound, and ClearStress must be able to restore exactly.
  StressSnapshot& snapshot = StressSnapshots()[&fabric];
  if (!Matches(snapshot, fabric)) {
    snapshot = StressSnapshot{};
    for (std::uint32_t i = 0; i < fabric.size(); ++i) {
      snapshot.runtimes.push_back(&fabric.runtime(i));
      snapshot.steal.push_back(fabric.runtime(i).config().steal);
    }
  }
  for (std::uint32_t i = 0; i < fabric.size(); ++i) {
    fabric.runtime(i).mutable_config().steal.hysteresis =
        snapshot.steal[i].hysteresis + config.steal_hysteresis_boost;
  }

  // One RNG per hook keeps every host's noise streams independent and
  // the whole run reproducible from the seed.
  for (std::uint32_t i = 0; i < fabric.size(); ++i) {
    auto dram_rng = std::make_shared<Xoshiro256>(config.seed + 11 * i);
    const StressConfig cfg = config;
    fabric.host(i).caches().SetDramContentionHook(
        [dram_rng, cfg]() -> Cycles {
          double extra = dram_rng->NextExponential(cfg.dram_extra_mean_cycles);
          if (dram_rng->NextBernoulli(cfg.dram_spike_probability)) {
            extra += dram_rng->NextPareto(cfg.dram_spike_scale_cycles,
                                          cfg.dram_spike_alpha);
          }
          return static_cast<Cycles>(extra);
        });

    auto preempt_rng = std::make_shared<Xoshiro256>(config.seed + 101 * i);
    fabric.runtime(i).SetPreemptionHook(
        [preempt_rng, cfg]() -> PicoTime {
          if (!preempt_rng->NextBernoulli(cfg.preempt_probability)) return 0;
          return Microseconds(preempt_rng->NextPareto(cfg.preempt_scale_us,
                                                      cfg.preempt_alpha));
        });
  }
}

void ClearStress(core::Fabric& fabric) {
  for (std::uint32_t i = 0; i < fabric.size(); ++i) {
    fabric.host(i).caches().SetDramContentionHook(nullptr);
    fabric.runtime(i).SetPreemptionHook(nullptr);
  }
  // Restore the pre-stress wait-loop defaults so apply/clear round-trips
  // exactly (the snapshot is retired with the restore; a stale entry from
  // a dead fabric reusing this address is dropped, not applied).
  const auto snapshot = StressSnapshots().find(&fabric);
  if (snapshot != StressSnapshots().end()) {
    if (Matches(snapshot->second, fabric)) {
      for (std::uint32_t i = 0; i < fabric.size(); ++i) {
        fabric.runtime(i).mutable_config().steal = snapshot->second.steal[i];
      }
    }
    StressSnapshots().erase(snapshot);
  }
}

}  // namespace twochains::bench
