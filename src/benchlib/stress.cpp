#include "benchlib/stress.hpp"

#include <memory>

#include "common/rng.hpp"

namespace twochains::bench {

void ApplyStress(core::Fabric& fabric, const StressConfig& config) {
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
}

}  // namespace twochains::bench
