//===-- perfbench/src/batch.cpp - steady / misspec / phases ---------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Every program runs under Normal and Deoptless on fresh Vms. Pairs of
// (program, strategy) are visited in a seeded order, and each gets the same
// share of the run's seconds per repetition; the repetitions are
// interleaved so drift on the machine spreads over all pairs alike.
//
//===----------------------------------------------------------------------===//

#include "runners.h"

#include "support/rng.h"

#include <algorithm>
#include <climits>
#include <cstdio>

using namespace pb;
using namespace rjit;

namespace {

constexpr TierStrategy Strategies[2] = {TierStrategy::Normal,
                                        TierStrategy::Deoptless};

/// Runs an untimed phase-switch statement; a failure counts as a failed op.
void runPre(Vm &V, const Step &S, Outcome &O) {
  if (S.Pre.empty())
    return;
  try {
    V.eval(S.Pre);
  } catch (const std::exception &E) {
    fprintf(stderr, "perfbench: %s: '%s' raised: %s\n", S.Key.c_str(),
            S.Pre.c_str(), E.what());
    ++O.Attempted;
    ++O.Failed;
  }
}

/// Per-run injection seed of one program repetition: shared by both
/// strategies, so they meet the same random invalidation stream.
uint64_t invalidationSeed(uint64_t Seed, size_t Prog, unsigned Rep) {
  Rng G(Seed * 0x9E3779B97F4A7C15ull + Prog * 1000003ull + Rep + 1);
  return G.next() | 1;
}

/// The seeded visiting order of (program, strategy) pairs.
std::vector<std::pair<size_t, unsigned>> pairOrder(size_t NumProgs,
                                                   uint64_t Seed) {
  std::vector<std::pair<size_t, unsigned>> Pairs;
  for (size_t P = 0; P < NumProgs; ++P)
    for (unsigned S = 0; S < 2; ++S)
      Pairs.push_back({P, S});
  Rng G(Seed ^ 0x5DEECE66Dull);
  for (size_t K = Pairs.size(); K > 1; --K)
    std::swap(Pairs[K - 1], Pairs[G.below(K)]);
  return Pairs;
}

/// setup_s: Vm construction plus each program's Setup eval, summed over
/// every (program, strategy); the median of several rounds.
double measureSetup(const BatchWorkload &W, unsigned Rounds, Outcome &O) {
  std::vector<double> Totals;
  for (unsigned R = 0; R < Rounds; ++R) {
    double CalMs = calibrationMs();
    uint64_t Sum = 0;
    for (const Prog &P : W.Progs)
      for (TierStrategy S : Strategies) {
        uint64_t T0 = nowNs();
        Vm V(measuredConfig(S, W.InvalidationRate, 1));
        try {
          V.eval(P.Setup);
        } catch (const std::exception &E) {
          fprintf(stderr, "perfbench: %s setup raised: %s\n", P.Name.c_str(),
                  E.what());
          ++O.Attempted;
          ++O.Failed;
        }
        Sum += nowNs() - T0;
      }
    double Scale = ReferenceCalibrationMs / (0.5 * (CalMs + calibrationMs()));
    Totals.push_back(static_cast<double>(Sum) * 1e-9 * Scale);
  }
  return median(Totals);
}

double opTotalMs(const RepStats &R) {
  double Ms = R.WarmupMs;
  for (double X : R.OpMs)
    Ms += X;
  return Ms;
}

} // namespace

RepStats pb::runRep(const Prog &P, const Vm::Config &Cfg, double SliceS,
                    unsigned MinSteady, unsigned MaxSteady,
                    const Reference &Ref, Outcome &O, SpanLog *Spans,
                    uint64_t Parent) {
  RepStats R;
  double CalMs = calibrationMs();
  Vm V(Cfg);
  {
    SpanScope Setup(Spans, "vm.setup", Parent);
    try {
      V.eval(P.Setup);
    } catch (const std::exception &E) {
      fprintf(stderr, "perfbench: %s setup raised: %s\n", P.Name.c_str(),
              E.what());
      ++O.Attempted;
      ++O.Failed;
      return R;
    }
  }
  // Counters cover the ops only: the region opens after the Vm (whose
  // constructor zeroes the process-global counters) and its Setup.
  CounterRegion Region;
  uint64_t Start = nowNs();
  uint64_t OpId = 0;
  for (unsigned C = 0;; ++C) {
    bool Warm = C < P.WarmupCycles;
    if (!Warm) {
      unsigned Steady = C - P.WarmupCycles;
      if (Steady >= MaxSteady ||
          (Steady >= MinSteady &&
           static_cast<double>(nowNs() - Start) * 1e-9 >= SliceS))
        break;
    }
    double CycleMs = 0;
    for (const Step &S : P.Cycle) {
      runPre(V, S, O);
      uint64_t Ns;
      {
        SpanScope Op(Spans, "vm.eval", Parent, ++OpId);
        Ns = timedOp(V, S.Driver, S.Key, Ref, O);
      }
      double Ms = static_cast<double>(Ns) * 1e-6;
      CycleMs += Ms;
      if (!Warm)
        R.OpMs.push_back(Ms);
    }
    if (Warm)
      R.WarmupMs += CycleMs;
    else
      R.CycleMs.push_back(CycleMs / static_cast<double>(P.Cycle.size()));
  }
  R.Counts = Region.finish();
  R.Scale = ReferenceCalibrationMs / (0.5 * (CalMs + calibrationMs()));
  R.WarmupMs *= R.Scale;
  for (double &X : R.CycleMs)
    X *= R.Scale;
  for (double &X : R.OpMs)
    X *= R.Scale;
  SpanScope Collect(Spans, "vm.collectHeap", Parent);
  uint64_t T0 = nowNs();
  V.collectHeap();
  R.CollectUs = static_cast<double>(nowNs() - T0) * 1e-3 * R.Scale;
  return R;
}

void pb::runBatch(const Options &O, const BatchWorkload &W,
                  const Reference &Ref, Outcome &Out) {
  uint64_t RunStart = nowNs();
  auto Pairs = pairOrder(W.Progs.size(), O.Seed);
  const size_t NumProgs = W.Progs.size();

  if (O.Trace) {
    // Identical fixed work twice, untraced then traced, so the difference
    // is the span recording's overhead and the counters repeat per seed.
    const unsigned Steady = O.Tiny ? 1 : 3;
    TracedPass TP;
    std::vector<SpanLog> Logs(1);
    for (int Traced = 0; Traced < 2; ++Traced) {
      SpanLog *Spans = Traced ? &Logs[0] : nullptr;
      SpanScope Pass(Spans, "workload", 0);
      for (auto [PI, SI] : Pairs) {
        const Prog &P = W.Progs[PI];
        SpanScope Rep(Spans, "rep", Pass.id(), PI);
        RepStats R = runRep(
            P,
            measuredConfig(Strategies[SI], W.InvalidationRate,
                           invalidationSeed(O.Seed, PI, 0)),
            0, Steady, Steady, Ref, Out, Spans, Rep.id());
        (Traced ? TP.TracedMs : TP.UntracedMs) += opTotalMs(R);
        if (!Traced)
          continue;
        uint64_t Ops = R.OpMs.size() + P.WarmupCycles * P.Cycle.size();
        (SI ? TP.Deoptless : TP.Normal).add(R.Counts);
        (SI ? TP.OpsDeoptless : TP.OpsNormal) += Ops;
        TP.CollectUs.push_back(R.CollectUs);
      }
    }
    reportLayers(O, W.Progs, W.InvalidationRate, TP, Ref, Logs[0], Out);
    // Only meaningful with one Vm at a time: the counter is process-global.
    printf("# runtime.gc_freed_mb (traced pass): %.3f MB\n",
           static_cast<double>(TP.Normal.GcFreedBytes +
                               TP.Deoptless.GcFreedBytes) /
               1e6);
    if (!O.SpansPath.empty())
      printf("# spans: %zu written to %s\n", writeSpans(O.SpansPath, Logs),
             O.SpansPath.c_str());
    return;
  }

  Out.add("setup_s", measureSetup(W, O.Tiny ? 2 : 5, Out), "s");
  const unsigned Reps = O.Tiny ? 1 : 3;
  const unsigned MinSteady = O.Tiny ? 1 : 10;
  double Left = O.Seconds - static_cast<double>(nowNs() - RunStart) * 1e-9;
  double Slice = std::max(Left, 0.5 * O.Seconds) /
                 static_cast<double>(Pairs.size() * Reps);
  if (O.Tiny)
    Slice = 0;

  struct PerPair {
    std::vector<double> Warm, Cycles, Scales, P50, P99;
    uint64_t Peak = 0;
  };
  std::vector<PerPair> Acc(NumProgs * 2);
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (auto [PI, SI] : Pairs) {
      RepStats R = runRep(W.Progs[PI],
                          measuredConfig(Strategies[SI], W.InvalidationRate,
                                         invalidationSeed(O.Seed, PI, Rep)),
                          Slice, MinSteady, UINT_MAX, Ref, Out);
      PerPair &A = Acc[PI * 2 + SI];
      A.Warm.push_back(R.WarmupMs);
      A.Scales.push_back(R.Scale);
      A.Cycles.insert(A.Cycles.end(), R.CycleMs.begin(), R.CycleMs.end());
      // A request is one iteration: one cycle of the program's steps. Its
      // percentiles are exact within each fresh Vm, then the median over
      // repetitions, so one repetition's burst of machine noise cannot
      // move them.
      if (!R.CycleMs.empty()) {
        A.P50.push_back(percentile(R.CycleMs, 0.50) * 1e3);
        A.P99.push_back(percentile(R.CycleMs, 0.99) * 1e3);
      }
      A.Peak = std::max(A.Peak, R.Counts.PeakBytes);
    }

  printf("# %-24s %-9s %10s %10s %10s %10s %6s %8s %6s\n", "program",
         "strategy", "iter_ms", "warmup_ms", "p50_us", "p99_us", "iters",
         "peak_mb", "scale");
  for (unsigned SI = 0; SI < 2; ++SI) {
    std::vector<double> Iter, Warm, P50, P99;
    double PeakMb = 0;
    size_t Samples = 0;
    for (size_t PI = 0; PI < NumProgs; ++PI) {
      const PerPair &A = Acc[PI * 2 + SI];
      if (A.Cycles.empty())
        continue; // setup failed; already counted
      Iter.push_back(median(A.Cycles));
      Warm.push_back(median(A.Warm));
      P50.push_back(median(A.P50));
      P99.push_back(median(A.P99));
      PeakMb = std::max(PeakMb, static_cast<double>(A.Peak) / 1e6);
      Samples += A.Cycles.size();
      printf("# %-24s %-9s %10.4f %10.3f %10.1f %10.1f %6zu %8.3f %6.3f\n",
             W.Progs[PI].Name.c_str(), strategyKey(Strategies[SI]),
             Iter.back(), Warm.back(), P50.back(), P99.back(), A.Cycles.size(),
             static_cast<double>(A.Peak) / 1e6, median(A.Scales));
    }
    std::string S = strategyKey(Strategies[SI]);
    printf("# %s: %zu steady iterations; req percentiles are exact per "
           "repetition, median over repetitions, geomean over %zu programs\n",
           S.c_str(), Samples, Iter.size());
    Out.add("iter_ms." + S, geomean(Iter), "ms");
    Out.add("warmup_ms." + S, geomean(Warm), "ms");
    Out.add("heap_peak_mb." + S, PeakMb, "MB");
    Out.add("req_p50_us." + S, geomean(P50), "us");
    Out.add("req_p99_us." + S, geomean(P99), "us");
  }
}
