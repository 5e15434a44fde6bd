//===-- perfbench/src/server.cpp - The open-loop server workload ----------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Two executor threads, each with its own Vm, share one single-threaded
// CompilerPool: three threads in all. Each executor generates its own
// arrivals at a fixed rate (open loop: a slow request delays the ones
// behind it but not their due times) and times every request from when it
// was due. Every InjectEvery-th request, by index, arms one injected
// invalidation on the executor's own Vm. Percentiles are exact, over the
// raw per-request samples.
//
//===----------------------------------------------------------------------===//

#include "runners.h"

#include "compile/pool.h"
#include "support/rng.h"

#include <algorithm>
#include <condition_variable>
#include <map>
#include <cstdio>
#include <mutex>
#include <sys/prctl.h>
#include <thread>

using namespace pb;
using namespace rjit;

namespace {

constexpr unsigned Executors = 2;
/// Arrivals per second per executor. Requests take ~20 us at this
/// commit, so each executor is busy well under a tenth of the time: far
/// below the knee, where queueing would dominate the tail.
constexpr double RatePerExecutor = 4000;
constexpr unsigned InjectEvery = 10;
/// Requests per executor before latencies count. The first WarmupTimed of
/// them walk the mix in order, six times, so every fresh Vm meets the
/// same cold start; their service time is warmup_ms.
constexpr unsigned WarmupRequests = 400;
constexpr unsigned WarmupTimed = 54;

/// All-or-nothing rendezvous of the executors and the orchestrator.
class Barrier {
public:
  explicit Barrier(unsigned N) : Count(N) {}
  void arriveAndWait() {
    std::unique_lock<std::mutex> L(Mu);
    unsigned G = Gen;
    if (++Waiting == Count) {
      Waiting = 0;
      ++Gen;
      Cv.notify_all();
      return;
    }
    Cv.wait(L, [&] { return Gen != G; });
  }

private:
  std::mutex Mu;
  std::condition_variable Cv;
  const unsigned Count;
  unsigned Waiting = 0;
  unsigned Gen = 0;
};

struct ExecResult {
  std::vector<double> LatUs;              ///< due -> done, measured reqs
  std::vector<std::vector<double>> SvcUs; ///< start -> done, per mix kind
  std::vector<double> GenLateUs;          ///< due -> start, when idle at due
  uint64_t BacklogMax = 0;
  double WarmupMs = 0;
  double SvcTotalMs = 0; ///< all measured requests' service time
  double DrainMs = 0, CollectUs = 0;
  Outcome Ops;
};

struct Session {
  std::vector<ExecResult> Execs;
  LayerCounts Counts;
};

/// Sleeps most of the way to \p Due (timer slack is set to 1 ns on the
/// executor threads), then spins the last stretch.
void waitUntil(uint64_t Due) {
  uint64_t Now = nowNs();
  if (Due > Now + 60000)
    std::this_thread::sleep_for(std::chrono::nanoseconds(Due - Now - 40000));
  while (nowNs() < Due) {
  }
}

/// One serving session: fresh pool and Vms, a warmup, then either
/// \p WindowS seconds or \p FixedRequests requests per executor.
Session runSession(TierStrategy S, uint64_t Seed, double WindowS,
                   unsigned FixedRequests, const Reference &Ref,
                   std::vector<SpanLog> *Logs) {
  const std::vector<std::string> &Mix = serverMix();
  const uint64_t Period = static_cast<uint64_t>(1e9 / RatePerExecutor);
  Session Out;
  Out.Execs.resize(Executors);
  double CalMs = calibrationMs();
  CompilerPool Pool(1);
  Barrier Sync(Executors + 1);
  uint64_t StartNs = 0, EndNs = 0; // published by the barrier

  auto Executor = [&](unsigned Id) {
    prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
    ExecResult &R = Out.Execs[Id];
    R.SvcUs.resize(Mix.size());
    SpanLog *Spans = Logs ? &(*Logs)[Id] : nullptr;
    Vm::Config C = measuredConfig(S, 0, 1);
    C.BackgroundCompile = true;
    C.Pool = &Pool;
    {
      Vm V(C);
      bool Broken = false;
      try {
        V.eval(ServerSetup);
      } catch (const std::exception &E) {
        fprintf(stderr, "perfbench: server setup raised: %s\n", E.what());
        ++R.Ops.Attempted;
        ++R.Ops.Failed;
        Broken = true;
      }
      Rng Gen(Seed * 0x9E3779B97F4A7C15ull + (Id + 1) * 0x100000001B3ull);
      Sync.arriveAndWait(); // every executor set up
      Sync.arriveAndWait(); // counters snapshotted, start time published
      SpanScope Sess(Spans, "session", 0);
      const uint64_t Offset = Id * Period / Executors;
      uint64_t PrevEnd = 0;
      for (uint64_t K = 0; !Broken; ++K) {
        uint64_t Due = StartNs + Offset + K * Period;
        if (FixedRequests ? K >= WarmupRequests + FixedRequests : Due >= EndNs)
          break;
        waitUntil(Due);
        uint64_t Begin = nowNs();
        bool Measured = K >= WarmupRequests;
        if (Measured) {
          if (PrevEnd <= Due)
            R.GenLateUs.push_back(static_cast<double>(Begin - Due) * 1e-3);
          uint64_t Overdue = (Begin - StartNs - Offset) / Period;
          R.BacklogMax = std::max(R.BacklogMax, Overdue > K ? Overdue - K : 0);
        }
        if (K % InjectEvery == 0)
          V.injectInvalidation();
        size_t Kind = K < WarmupTimed ? K % Mix.size() : Gen.below(Mix.size());
        uint64_t SvcNs;
        {
          SpanScope Op(Spans, "vm.eval", Sess.id(), K);
          SvcNs = timedOp(V, Mix[Kind], serverKey(Mix[Kind]), Ref, R.Ops);
        }
        uint64_t End = nowNs();
        PrevEnd = End;
        if (!Measured) {
          if (K < WarmupTimed)
            R.WarmupMs += static_cast<double>(SvcNs) * 1e-6;
          continue;
        }
        R.LatUs.push_back(static_cast<double>(End - Due) * 1e-3);
        R.SvcUs[Kind].push_back(static_cast<double>(SvcNs) * 1e-3);
        R.SvcTotalMs += static_cast<double>(SvcNs) * 1e-6;
      }
      Sync.arriveAndWait(); // traffic over: counters read
      {
        SpanScope D(Spans, "vm.drainCompiles", Sess.id());
        uint64_t T0 = nowNs();
        V.drainCompiles();
        R.DrainMs = static_cast<double>(nowNs() - T0) * 1e-6;
      }
      SpanScope G(Spans, "vm.collectHeap", Sess.id());
      uint64_t T0 = nowNs();
      V.collectHeap();
      R.CollectUs = static_cast<double>(nowNs() - T0) * 1e-3;
    }
  };

  std::vector<std::thread> Threads;
  for (unsigned Id = 0; Id < Executors; ++Id)
    Threads.emplace_back(Executor, Id);
  Sync.arriveAndWait();
  {
    // Opened after every Vm constructor ran (each zeroes the counters).
    CounterRegion Region;
    StartNs = nowNs() + 1000000;
    EndNs = StartNs + WarmupRequests * Period +
            static_cast<uint64_t>(WindowS * 1e9);
    Sync.arriveAndWait();
    Sync.arriveAndWait();
    Out.Counts = Region.finish();
  }
  for (std::thread &T : Threads)
    T.join();
  double Scale = ReferenceCalibrationMs / (0.5 * (CalMs + calibrationMs()));
  for (ExecResult &R : Out.Execs) {
    for (double &X : R.LatUs)
      X *= Scale;
    for (std::vector<double> &Kind : R.SvcUs)
      for (double &X : Kind)
        X *= Scale;
    R.WarmupMs *= Scale;
    R.SvcTotalMs *= Scale;
    R.DrainMs *= Scale;
    R.CollectUs *= Scale;
  }
  return Out;
}

/// setup_s: pool construction plus every executor's Vm construction and
/// Setup eval (one at a time on this thread); the median of several rounds.
double measureSetup(unsigned Rounds, Outcome &O) {
  std::vector<double> Totals;
  for (unsigned R = 0; R < Rounds; ++R) {
    double CalMs = calibrationMs();
    uint64_t T0 = nowNs();
    CompilerPool Pool(1);
    uint64_t Sum = nowNs() - T0;
    for (unsigned Id = 0; Id < Executors; ++Id) {
      uint64_t T1 = nowNs();
      Vm::Config C = measuredConfig(TierStrategy::Normal, 0, 1);
      C.BackgroundCompile = true;
      C.Pool = &Pool;
      Vm V(C);
      try {
        V.eval(ServerSetup);
      } catch (const std::exception &E) {
        fprintf(stderr, "perfbench: server setup raised: %s\n", E.what());
        ++O.Attempted;
        ++O.Failed;
      }
      Sum += nowNs() - T1;
    }
    double Scale = ReferenceCalibrationMs / (0.5 * (CalMs + calibrationMs()));
    Totals.push_back(static_cast<double>(Sum) * 1e-9 * Scale);
  }
  return median(Totals);
}

void countOps(const Session &S, Outcome &Out) {
  for (const ExecResult &E : S.Execs) {
    Out.Attempted += E.Ops.Attempted;
    Out.Failed += E.Ops.Failed;
  }
}

} // namespace

void pb::runServer(const Options &O, const Reference &Ref, Outcome &Out) {
  uint64_t RunStart = nowNs();
  const TierStrategy Strats[2] = {TierStrategy::Normal,
                                  TierStrategy::Deoptless};
  // Which strategy goes first alternates with the seed.
  const unsigned First = O.Seed % 2;

  if (O.Trace) {
    const unsigned Fixed = O.Tiny ? 100 : 4000;
    TracedPass TP;
    std::vector<SpanLog> Logs;
    for (int Traced = 0; Traced < 2; ++Traced)
      for (unsigned K = 0; K < 2; ++K) {
        unsigned SI = K ^ First;
        std::vector<SpanLog> Exec;
        for (unsigned Id = 0; Id < Executors; ++Id)
          Exec.emplace_back(static_cast<uint32_t>(1 + Logs.size() + Id));
        Session S = runSession(Strats[SI], O.Seed + SI, 0, Fixed, Ref,
                               Traced ? &Exec : nullptr);
        countOps(S, Out);
        for (const ExecResult &E : S.Execs)
          (Traced ? TP.TracedMs : TP.UntracedMs) += E.SvcTotalMs;
        if (!Traced)
          continue;
        (SI ? TP.Deoptless : TP.Normal).add(S.Counts);
        for (const ExecResult &E : S.Execs) {
          uint64_t Ops = E.Ops.Attempted;
          (SI ? TP.OpsDeoptless : TP.OpsNormal) += Ops;
          TP.DrainMs.push_back(E.DrainMs);
          TP.CollectUs.push_back(E.CollectUs);
          TP.GenLateUs.insert(TP.GenLateUs.end(), E.GenLateUs.begin(),
                              E.GenLateUs.end());
          TP.BacklogMax = std::max(TP.BacklogMax, E.BacklogMax);
        }
        for (SpanLog &L : Exec)
          Logs.push_back(std::move(L));
      }
    Logs.emplace_back(0);
    reportLayers(O, serverProgs(), 0, TP, Ref, Logs.back(), Out);
    if (!O.SpansPath.empty())
      printf("# spans: %zu written to %s\n", writeSpans(O.SpansPath, Logs),
             O.SpansPath.c_str());
    return;
  }

  Out.add("setup_s", measureSetup(O.Tiny ? 2 : 5, Out), "s");
  const unsigned Reps = O.Tiny ? 1 : 12;
  const uint64_t Period = static_cast<uint64_t>(1e9 / RatePerExecutor);
  double Left = O.Seconds - static_cast<double>(nowNs() - RunStart) * 1e-9;
  double Window = std::max(Left, 0.5 * O.Seconds) / (2.0 * Reps) -
                  WarmupRequests * Period * 1e-9;
  if (O.Tiny || Window < 0.05)
    Window = 0.05;

  struct PerStrategy {
    std::vector<double> LatUs, WarmMs, PeakMb, P50, P99;
    std::map<std::string, std::vector<double>> SvcUs; ///< per request kind
  };
  PerStrategy Acc[2];
  for (unsigned Rep = 0; Rep < Reps; ++Rep)
    for (unsigned K = 0; K < 2; ++K) {
      unsigned SI = K ^ First;
      Session S =
          runSession(Strats[SI], O.Seed * 31 + Rep, Window, 0, Ref, nullptr);
      countOps(S, Out);
      PerStrategy &A = Acc[SI];
      A.PeakMb.push_back(static_cast<double>(S.Counts.PeakBytes) / 1e6);
      std::vector<double> SessionLat;
      for (const ExecResult &E : S.Execs) {
        SessionLat.insert(SessionLat.end(), E.LatUs.begin(), E.LatUs.end());
        A.WarmMs.push_back(E.WarmupMs);
        for (size_t Kind = 0; Kind < E.SvcUs.size(); ++Kind) {
          std::vector<double> &V = A.SvcUs[serverMix()[Kind]];
          V.insert(V.end(), E.SvcUs[Kind].begin(), E.SvcUs[Kind].end());
        }
      }
      A.P50.push_back(percentile(SessionLat, 0.50));
      A.P99.push_back(percentile(SessionLat, 0.99));
      A.LatUs.insert(A.LatUs.end(), SessionLat.begin(), SessionLat.end());
    }

  for (unsigned SI = 0; SI < 2; ++SI) {
    const PerStrategy &A = Acc[SI];
    std::vector<double> Iter;
    for (const auto &Kind : A.SvcUs)
      if (!Kind.second.empty())
        Iter.push_back(median(Kind.second) * 1e-3);
    std::string S = strategyKey(Strats[SI]);
    size_t N = A.LatUs.size() / Reps;
    printf("# %s: %u sessions of ~%zu measured requests (%zu beyond p99) at "
           "%.0f/s per executor x %u executors; all sessions pooled, latency "
           "us p90 %.1f p95 %.1f p99 %.1f p99.9 %.1f\n",
           S.c_str(), Reps, N, N / 100, RatePerExecutor, Executors,
           percentile(A.LatUs, 0.90), percentile(A.LatUs, 0.95),
           percentile(A.LatUs, 0.99), percentile(A.LatUs, 0.999));
    Out.add("iter_ms." + S, geomean(Iter), "ms");
    Out.add("warmup_ms." + S, median(A.WarmMs), "ms");
    Out.add("heap_peak_mb." + S, median(A.PeakMb), "MB");
    // Exact percentiles per session, then the median over sessions: one
    // session's burst of machine noise cannot move the result.
    Out.add("req_p50_us." + S, median(A.P50), "us");
    Out.add("req_p99_us." + S, median(A.P99), "us");
  }
}
