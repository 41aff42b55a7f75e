#include "sim/core_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

namespace perspector::sim {

namespace {

// The background stream lives far away from any workload phase region
// (phase regions start at 1 << 34).
constexpr std::uint64_t kBackgroundBase = 1ull << 50;

sim::AccessPatternParams background_params(const MachineConfig& config) {
  return {.kind = AccessPatternKind::RandomUniform,
          .working_set_bytes = std::max<std::uint64_t>(
              config.background_region_bytes, 4096)};
}

}  // namespace

CoreModel::CoreModel(const MachineConfig& config, std::uint64_t seed,
                     Cache* shared_llc, std::uint64_t address_offset)
    : config_(config),
      rng_(seed),
      caches_(config, shared_llc),
      tlb_(config.dtlb, config.stlb, config.page_bytes, config.stlb_hit_cycles,
           config.page_walk_cycles),
      predictor_(make_predictor(config)),
      pages_(config.page_bytes),
      background_(background_params(config), kBackgroundBase, rng_.fork()) {
  address_offset_ = address_offset;
}

std::uint64_t CoreModel::data_access(std::uint64_t addr, bool is_store) {
  if (pages_.touch(addr)) {
    ++page_faults_;
    cycles_ += config_.page_fault_cycles;
  }
  const TlbAccess translation = tlb_.access(addr, is_store);
  const HierarchyAccess mem =
      caches_.access(addr, is_store ? AccessType::Store : AccessType::Load);

  // L1-hit latency is assumed pipelined away; everything beyond it is a
  // memory stall, as is any TLB handling time.
  std::uint64_t stall = translation.latency_cycles;
  if (mem.latency_cycles > config_.l1_hit_cycles) {
    stall += mem.latency_cycles - config_.l1_hit_cycles;
  }
  return stall;
}

void CoreModel::start_phase(const PhaseSpec& phase, std::size_t phase_index) {
  PhaseState state;
  state.spec = phase;

  // Distinct virtual region per phase: fresh allocations, hence compulsory
  // misses and page faults at phase entry — visible as phase transitions in
  // the sampled counter series.
  const std::uint64_t region_base =
      address_offset_ + ((static_cast<std::uint64_t>(phase_index) + 1) << 34);
  state.pattern.emplace(phase.pattern, region_base, rng_.fork());

  // Per-site loop periods derived from the phase's taken probability:
  // a branch taken with long-run frequency p behaves like a loop of period
  // 1/(1-p) (taken period-1 times, then not-taken). Deterministic within
  // the phase, so predictors can learn it; `branch_randomness` injects the
  // unlearnable fraction.
  state.branch_pc_base =
      0x400000 + (static_cast<std::uint64_t>(phase_index) << 20);
  state.site_period.resize(phase.branch_sites);
  state.site_counter.resize(phase.branch_sites);
  for (std::size_t s = 0; s < phase.branch_sites; ++s) {
    const double jitter = rng_.uniform(-0.08, 0.08);
    const double bias =
        std::clamp(phase.branch_taken_prob + jitter, 0.05, 0.98);
    state.site_period[s] = static_cast<std::uint32_t>(
        std::clamp(std::llround(1.0 / (1.0 - bias)), 2ll, 64ll));
    state.site_counter[s] =
        static_cast<std::uint32_t>(rng_.uniform_int(0, state.site_period[s] - 1));
  }

  state.p_load = phase.load_frac;
  state.p_store = state.p_load + phase.store_frac;
  state.p_branch = state.p_store + phase.branch_frac;
  state.p_fp = state.p_branch + phase.fp_frac;

  phase_ = std::move(state);
}

void CoreModel::step(std::uint64_t instructions, PmuSampler* sampler) {
  if (!phase_.has_value()) {
    throw std::logic_error("CoreModel::step: no phase started");
  }
  PhaseState& state = *phase_;
  const std::uint64_t interval = sampler ? sampler->interval() : 0;
  // Instructions left until instructions_ reaches the next multiple of
  // `interval`, where the sampler takes its snapshot.
  std::uint64_t until_sample =
      interval != 0 ? interval - instructions_ % interval : 0;

  for (std::uint64_t i = 0; i < instructions; ++i) {
    ++instructions_;
    cycles_ += config_.base_cpi;

    // System background activity (OS ticks, page cache): a sparse random
    // access stream that keeps every counter's floor non-zero, as on real
    // hardware.
    if (config_.background_access_rate > 0.0 &&
        rng_.bernoulli(config_.background_access_rate)) {
      const std::uint64_t stall =
          data_access(background_.next(), rng_.bernoulli(0.3));
      mem_stall_cycles_ += stall;
      cycles_ += static_cast<double>(stall);
    }

    const double u = rng_.uniform();
    if (u < state.p_store) {
      // Memory instruction (load or store).
      const bool is_store = u >= state.p_load;
      const std::uint64_t stall =
          data_access(state.pattern->next(), is_store);
      mem_stall_cycles_ += stall;
      cycles_ += static_cast<double>(stall);
    } else if (u < state.p_branch) {
      const std::uint64_t pc =
          state.branch_pc_base +
          static_cast<std::uint64_t>(state.branch_site) * 4;
      // Outcome: unlearnable coin with prob `branch_randomness`, otherwise
      // the site's deterministic loop pattern (taken except at wrap).
      bool outcome;
      if (rng_.bernoulli(state.spec.branch_randomness)) {
        outcome = rng_.bernoulli(0.5);
      } else {
        std::uint32_t& counter = state.site_counter[state.branch_site];
        if (++counter == state.site_period[state.branch_site]) counter = 0;
        outcome = counter != 0;
      }
      if (!predictor_->predict_and_update(pc, outcome)) {
        cycles_ += config_.branch_misprediction_cycles;
      }
      // A not-taken outcome is the loop exit: control moves on to the next
      // static branch. Consecutive executions of one site keep the global
      // history coherent, as real loops do.
      if (!outcome && ++state.branch_site == state.spec.branch_sites) {
        state.branch_site = 0;
      }
    } else if (u < state.p_fp) {
      cycles_ += config_.fp_extra_cpi;
    }
    // Remainder: integer ALU, base cost only.

    if (interval != 0 && --until_sample == 0) {
      sampler->maybe_sample(instructions_, counters());
      until_sample = interval;
    }
  }
}

void CoreModel::run_phase(const PhaseSpec& phase, std::uint64_t instructions,
                          std::size_t phase_index, PmuSampler* sampler) {
  start_phase(phase, phase_index);
  step(instructions, sampler);
}

PmuCounterSet CoreModel::counters() const {
  PmuCounterSet c;
  c[PmuEvent::CpuCycles] = static_cast<std::uint64_t>(std::llround(cycles_));
  c[PmuEvent::BranchInstructions] = predictor_->stats().branches;
  c[PmuEvent::BranchMisses] = predictor_->stats().mispredictions;
  c[PmuEvent::DtlbWalkPending] = tlb_.stats().walk_pending_cycles;
  c[PmuEvent::StallsMemAny] = mem_stall_cycles_;
  c[PmuEvent::PageFaults] = page_faults_;
  c[PmuEvent::DtlbLoads] = tlb_.stats().loads;
  c[PmuEvent::DtlbStores] = tlb_.stats().stores;
  c[PmuEvent::DtlbLoadMisses] = tlb_.stats().load_misses;
  c[PmuEvent::DtlbStoreMisses] = tlb_.stats().store_misses;
  c[PmuEvent::LlcLoads] = caches_.llc_stats().loads;
  c[PmuEvent::LlcStores] = caches_.llc_stats().stores;
  c[PmuEvent::LlcLoadMisses] = caches_.llc_stats().load_misses;
  c[PmuEvent::LlcStoreMisses] = caches_.llc_stats().store_misses;
  return c;
}

}  // namespace perspector::sim
