//===-- support/stats.cpp - VM event counters -----------------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "support/stats.h"

using namespace rjit;

namespace {

// The per-kind rules behind VmStats' operators (see stats.h).
RelaxedCounter minus(const RelaxedCounter &A, const RelaxedCounter &B) {
  return A - B;
}
RelaxedGauge minus(const RelaxedGauge &Later, const RelaxedGauge &) {
  return Later;
}
void plus(RelaxedCounter &A, const RelaxedCounter &B) { A += B; }
void plus(RelaxedGauge &A, const RelaxedGauge &Later) { A.absorb(Later); }

} // namespace

VmStats VmStats::operator-(const VmStats &O) const {
  VmStats R;
#define RJIT_STAT_MINUS(Member, Name, Kind, Help)                             \
  R.Member = minus(Member, O.Member);
  RJIT_VM_STATS(RJIT_STAT_MINUS)
#undef RJIT_STAT_MINUS
  return R;
}

VmStats &VmStats::operator+=(const VmStats &O) {
#define RJIT_STAT_PLUS(Member, Name, Kind, Help) plus(Member, O.Member);
  RJIT_VM_STATS(RJIT_STAT_PLUS)
#undef RJIT_STAT_PLUS
  return *this;
}

static VmStats GlobalStats;

VmStats &rjit::stats() { return GlobalStats; }

void rjit::resetStats() { GlobalStats = VmStats(); }
