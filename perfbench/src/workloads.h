//===-- perfbench/src/workloads.h - Workload definitions ---------*- C++ -*-===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The mini-R sources every workload feeds the VM. A program is a Setup
/// plus a cycle of steps; one step is one timed operation (an iteration),
/// optionally preceded by an untimed Pre statement that switches a phase.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include <cstdint>
#include <string>
#include <vector>

namespace pb {

struct Step {
  std::string Pre;    ///< untimed phase switch ("" = none)
  std::string Driver; ///< the timed operation
  std::string Key;    ///< reference-result key
};

struct Prog {
  std::string Name;
  std::string Setup;
  std::vector<Step> Cycle;
  /// Cycles of a fresh Vm counted as warmup (tier-up, compile, OSR-in and
  /// the first deopts happen there); later cycles are steady state.
  unsigned WarmupCycles = 3;
};

/// A batch workload: its programs and the §5.1 invalidation rate.
struct BatchWorkload {
  std::vector<Prog> Progs;
  uint64_t InvalidationRate = 0; ///< 1-in-N guard checks fail (0 = off)
};

/// "steady", "misspec" or "phases"; false for any other name.
bool batchWorkload(const std::string &Name, BatchWorkload &Out);

/// The query service installed in every server Vm and the weighted request
/// mix (the fig_server / server_harness mix, q_churn included).
extern const char *const ServerSetup;
const std::vector<std::string> &serverMix();
/// Reference key of a server request.
std::string serverKey(const std::string &Request);
/// Each distinct request as a one-step program (layer probes, capture).
std::vector<Prog> serverProgs();

} // namespace pb

#endif // PERFBENCH_WORKLOADS_H
