//===-- obs/metrics.cpp - Latency histograms & metrics registry -----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "obs/metrics.h"

#include <cstdio>

using namespace rjit;
using namespace rjit::obs;

uint64_t LatencyHistogram::quantile(double Q) const {
  uint64_t Total = count();
  if (!Total)
    return 0;
  uint64_t Rank = static_cast<uint64_t>(Q * static_cast<double>(Total));
  if (Rank < 1)
    Rank = 1;
  if (Rank > Total)
    Rank = Total;
  uint64_t Cum = 0;
  for (unsigned K = 0; K < NumBuckets; ++K) {
    Cum += Buckets[K];
    if (Cum >= Rank)
      return bucketLowerBound(K);
  }
  return max(); // counts raced past N; saturate at the recorded maximum
}

static VmMetrics GlobalMetrics;

VmMetrics &rjit::obs::metrics() { return GlobalMetrics; }

void rjit::obs::resetMetrics() { GlobalMetrics = VmMetrics(); }

namespace {

using CounterFn = MetricsRegistry::CounterFn;
using GaugeFn = MetricsRegistry::GaugeFn;

// Kind dispatch for the RJIT_VM_STATS rows: each visitor sees only the
// rows of its own kind.
void visitCounter(const char *Name, const RelaxedCounter &C,
                  const CounterFn &Fn) {
  Fn(Name, C.load());
}
void visitCounter(const char *, const RelaxedGauge &, const CounterFn &) {}
void visitGauge(const char *, const RelaxedCounter &, const GaugeFn &) {}
void visitGauge(const char *Name, const RelaxedGauge &G, const GaugeFn &Fn) {
  Fn(Name, G.value(), G.highWater());
}

} // namespace

void MetricsRegistry::forEachCounter(const VmStats &S, const CounterFn &Fn) {
#define RJIT_STAT_VISIT(Member, Name, Kind, Help)                             \
  visitCounter(Name, S.Member, Fn);
  RJIT_VM_STATS(RJIT_STAT_VISIT)
#undef RJIT_STAT_VISIT
}

void MetricsRegistry::forEachGauge(const VmStats &S, const GaugeFn &Fn) {
#define RJIT_STAT_VISIT(Member, Name, Kind, Help) visitGauge(Name, S.Member, Fn);
  RJIT_VM_STATS(RJIT_STAT_VISIT)
#undef RJIT_STAT_VISIT
}

void MetricsRegistry::forEachHistogram(const VmMetrics &M,
                                       const HistogramFn &Fn) {
#define RJIT_HIST_VISIT(Member, Name, Help) Fn(Name, M.Member);
  RJIT_VM_HISTOGRAMS(RJIT_HIST_VISIT)
#undef RJIT_HIST_VISIT
}

VmMetrics MetricsRegistry::snapshotAndReset() {
  VmMetrics Out;
#define RJIT_HIST_DRAIN(Member, Name, Help)                                   \
  Out.Member = GlobalMetrics.Member.drain();
  RJIT_VM_HISTOGRAMS(RJIT_HIST_DRAIN)
#undef RJIT_HIST_DRAIN
  return Out;
}

void MetricsRegistry::print(const char *Label, const VmStats &S,
                            const VmMetrics &M) {
  forEachCounter(S, [&](const char *Name, uint64_t V) {
    if (V)
      printf("# metric[%s] %s = %llu\n", Label, Name,
             static_cast<unsigned long long>(V));
  });
  forEachGauge(S, [&](const char *Name, uint64_t V, uint64_t High) {
    if (V || High)
      printf("# metric[%s] %s = %llu (high-water %llu)\n", Label, Name,
             static_cast<unsigned long long>(V),
             static_cast<unsigned long long>(High));
  });
  forEachHistogram(M, [&](const char *Name, const LatencyHistogram &H) {
    if (H.count())
      printf("# metric[%s] %s: count=%llu p50=%llu p90=%llu p99=%llu "
             "max=%llu mean=%.0f\n",
             Label, Name, static_cast<unsigned long long>(H.count()),
             static_cast<unsigned long long>(H.p50()),
             static_cast<unsigned long long>(H.p90()),
             static_cast<unsigned long long>(H.p99()),
             static_cast<unsigned long long>(H.max()), H.mean());
  });
}
