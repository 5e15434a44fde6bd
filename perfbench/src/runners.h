//===-- perfbench/src/runners.h - Workload runners ---------------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_RUNNERS_H
#define PERFBENCH_RUNNERS_H

#include "common.h"
#include "workloads.h"

namespace pb {

/// What one fresh Vm running one program measured. Times are scaled to the
/// reference machine speed (see calibrationMs()) by Scale.
struct RepStats {
  double Scale = 1;
  double WarmupMs = 0;         ///< the warmup cycles' op time
  std::vector<double> CycleMs; ///< steady cycles: mean op time per cycle
  std::vector<double> OpMs;    ///< steady ops, one sample each
  double CollectUs = 0;        ///< a timed Vm::collectHeap() after the run
  LayerCounts Counts;          ///< counters over warmup + steady
};

/// Builds a Vm from \p Cfg, evaluates the program's Setup, then runs its
/// cycle: WarmupCycles first, then steady cycles until at least \p MinSteady
/// ran and \p SliceS seconds passed since the first op, or \p MaxSteady ran.
/// Every op is checked against \p Ref and counted in \p O.
RepStats runRep(const Prog &P, const rjit::Vm::Config &Cfg, double SliceS,
                unsigned MinSteady, unsigned MaxSteady, const Reference &Ref,
                Outcome &O, SpanLog *Spans = nullptr, uint64_t Parent = 0);

/// What a traced run's workload pass hands to the layer report.
struct TracedPass {
  LayerCounts Normal, Deoptless;   ///< counters per strategy
  uint64_t OpsNormal = 0, OpsDeoptless = 0;
  double UntracedMs = 0, TracedMs = 0; ///< identical fixed work, both ways
  std::vector<double> DrainMs;     ///< timed drainCompiles() calls
  std::vector<double> CollectUs;   ///< timed collectHeap() calls
  std::vector<double> GenLateUs;   ///< server generator lateness samples
  uint64_t BacklogMax = 0;
};

/// Probes each layer from outside (parse, bytecode compile, optimize,
/// lower, native prepare; baseline / LowCode / native iteration time) on
/// \p Progs and emits every per-layer metric of the traced run.
void reportLayers(const Options &O, const std::vector<Prog> &Progs,
                  uint64_t Rate, const TracedPass &Pass, const Reference &Ref,
                  SpanLog &Spans, Outcome &Out);

/// The batch workloads (steady / misspec / phases).
void runBatch(const Options &O, const BatchWorkload &W, const Reference &Ref,
              Outcome &Out);

/// The open-loop server workload.
void runServer(const Options &O, const Reference &Ref, Outcome &Out);

} // namespace pb

#endif // PERFBENCH_RUNNERS_H
