#include "benchlib/stress.hpp"

#include <memory>

#include "common/rng.hpp"

namespace twochains::bench {

void ApplyStress(core::Fabric& fabric, const StressConfig& config) {
  // One RNG per hook keeps every host's noise streams independent and
  // the whole run reproducible from the seed.
  for (std::uint32_t i = 0; i < fabric.size(); ++i) {
    auto dram_rng = std::make_shared<Xoshiro256>(config.seed + 11 * i);
    fabric.host(i).caches().SetDramContentionHook([dram_rng]() -> Cycles {
      double extra = dram_rng->NextExponential(kDramExtraMeanCycles);
      if (dram_rng->NextBernoulli(kDramSpikeProbability)) {
        extra += dram_rng->NextPareto(kDramSpikeScaleCycles, kDramSpikeAlpha);
      }
      return static_cast<Cycles>(extra);
    });

    auto preempt_rng = std::make_shared<Xoshiro256>(config.seed + 101 * i);
    fabric.runtime(i).SetPreemptionHook(
        [preempt_rng, p = config.preempt_probability]() -> PicoTime {
          if (!preempt_rng->NextBernoulli(p)) return 0;
          return Microseconds(
              preempt_rng->NextPareto(kPreemptScaleUs, kPreemptAlpha));
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
