//===-- perfbench/src/layers.cpp - Per-layer metrics of the traced run ----===//
//
// Part of the deoptless reproduction. MIT license.
//
// Each layer is timed from outside, by calling its public entry point
// directly on the workload's own sources and warmed functions: the front
// end (parseProgram, compileToBc), the optimizer (optimizeToIr), LowCode
// lowering (lowerToLow) and the native backend (ExecBackend::prepare).
// Iteration speed of each execution tier comes from whole programs run
// under BaselineOnly, Normal with NativeTier off, and Normal with it on.
// The remaining layer counters are the traced workload pass's deltas.
//
//===----------------------------------------------------------------------===//

#include "runners.h"

#include "bc/compiler.h"
#include "lang/parser.h"
#include "lowcode/lower.h"
#include "native/native.h"
#include "opt/pipeline.h"

#include <cstdio>
#include <set>

using namespace pb;
using namespace rjit;

namespace {

/// Every function of \p Fn's closure tree that has been called at least
/// once (its feedback is warm), each once.
void collectWarm(Function *Fn, std::set<Function *> &Seen,
                 std::vector<Function *> &Out) {
  if (!Fn || !Seen.insert(Fn).second)
    return;
  if (Fn->CallCount > 0)
    Out.push_back(Fn);
  for (Function *Inner : Fn->InnerFns)
    collectWarm(Inner, Seen, Out);
}

size_t irInstrs(const IrCode &C) {
  size_t N = 0;
  for (const auto &B : C.Blocks)
    N += B->Instrs.size();
  return N;
}

/// Front-end cost of every distinct source of the workload, per repeat.
void probeFrontEnd(const std::vector<Prog> &Progs, unsigned Repeats,
                   SpanLog &Spans, uint64_t Parent, Outcome &Out) {
  std::set<std::string> Sources;
  for (const Prog &P : Progs) {
    Sources.insert(P.Setup);
    for (const Step &S : P.Cycle) {
      if (!S.Pre.empty())
        Sources.insert(S.Pre);
      Sources.insert(S.Driver);
    }
  }
  std::vector<double> ParseUs, BcUs;
  for (unsigned R = 0; R < Repeats; ++R) {
    uint64_t ParseNs = 0, BcNs = 0;
    for (const std::string &Src : Sources) {
      ParseResult PR;
      {
        SpanScope S(&Spans, "lang.parseProgram", Parent);
        uint64_t T0 = nowNs();
        PR = parseProgram(Src);
        ParseNs += nowNs() - T0;
      }
      if (!PR.ok()) {
        fprintf(stderr, "perfbench: parse failed: %s\n", PR.Error.c_str());
        ++Out.Attempted;
        ++Out.Failed;
        continue;
      }
      SpanScope S(&Spans, "bc.compileToBc", Parent);
      uint64_t T0 = nowNs();
      BcResult BR = compileToBc(*PR.Ast);
      BcNs += nowNs() - T0;
      if (!BR.ok()) {
        fprintf(stderr, "perfbench: compileToBc failed: %s\n",
                BR.Error.c_str());
        ++Out.Attempted;
        ++Out.Failed;
      }
    }
    ParseUs.push_back(static_cast<double>(ParseNs) * 1e-3);
    BcUs.push_back(static_cast<double>(BcNs) * 1e-3);
  }
  Out.add("lang.parse_us", median(ParseUs), "us");
  Out.add("bc.compile_us", median(BcUs), "us");
}

/// Optimizer, lowering and native-prepare cost of every warmed function of
/// the workload, per repeat.
void probeCompilers(const std::vector<Prog> &Progs, unsigned Repeats,
                    const Reference &Ref, SpanLog &Spans, uint64_t Parent,
                    Outcome &Out) {
  std::vector<double> OptNs(Repeats), LowerNs(Repeats), PrepNs(Repeats);
  uint64_t Instrs = 0, Spills = 0, Fused = 0;
  for (const Prog &P : Progs) {
    Vm::Config Cfg = measuredConfig(TierStrategy::Normal, 0, 1);
    Vm V(Cfg);
    try {
      V.eval(P.Setup);
    } catch (const std::exception &E) {
      fprintf(stderr, "perfbench: %s setup raised: %s\n", P.Name.c_str(),
              E.what());
      ++Out.Attempted;
      ++Out.Failed;
      continue;
    }
    for (unsigned C = 0; C < P.WarmupCycles; ++C)
      for (const Step &S : P.Cycle) {
        if (!S.Pre.empty())
          V.eval(S.Pre);
        timedOp(V, S.Driver, S.Key, Ref, Out);
      }
    std::set<Function *> Seen;
    std::vector<Function *> Fns;
    for (auto &B : V.global()->bindings())
      if (B.second.tag() == Tag::Clos)
        collectWarm(B.second.closObj()->Fn, Seen, Fns);

    OptOptions Opts;
    Opts.Speculate = Cfg.Speculate;
    Opts.Inline = Cfg.inlineView();
    Opts.Loop = Cfg.LoopOpts;
    Opts.VerifyEachPass = Cfg.VerifyBetweenPasses;
    std::unique_ptr<ExecBackend> Native = makeNativeBackend(Cfg.NativeV2);
    for (unsigned R = 0; R < Repeats; ++R) {
      for (Function *Fn : Fns) {
        std::unique_ptr<IrCode> Ir;
        {
          SpanScope S(&Spans, "opt.optimizeToIr", Parent);
          uint64_t T0 = nowNs();
          // The VM's own order: the elided convention first, then a real
          // environment.
          Ir = optimizeToIr(Fn, CallConv::FullElided, EntryState(), Opts);
          if (!Ir)
            Ir = optimizeToIr(Fn, CallConv::FullEnv, EntryState(), Opts);
          OptNs[R] += static_cast<double>(nowNs() - T0);
        }
        if (!Ir)
          continue;
        if (R == 0)
          Instrs += irInstrs(*Ir);
        std::unique_ptr<LowFunction> Low;
        {
          SpanScope S(&Spans, "lowcode.lowerToLow", Parent);
          uint64_t T0 = nowNs();
          Low = lowerToLow(*Ir);
          LowerNs[R] += static_cast<double>(nowNs() - T0);
        }
        if (!Native)
          continue;
        uint64_t Spills0 = stats().NativeRegSpills;
        uint64_t Fused0 = stats().NativeFusedOps;
        SpanScope S(&Spans, "native.prepare", Parent);
        uint64_t T0 = nowNs();
        std::unique_ptr<ExecutableCode> Code = Native->prepare(std::move(Low));
        PrepNs[R] += static_cast<double>(nowNs() - T0);
        if (R == 0) {
          Spills += stats().NativeRegSpills - Spills0;
          Fused += stats().NativeFusedOps - Fused0;
        }
      }
    }
  }
  auto MedianUs = [](const std::vector<double> &Ns) {
    return median(Ns) * 1e-3;
  };
  Out.add("opt.optimize_us", MedianUs(OptNs), "us");
  Out.add("opt.ir_instrs", static_cast<double>(Instrs), "count");
  Out.add("lowcode.lower_us", MedianUs(LowerNs), "us");
  Out.add("native.prepare_us", MedianUs(PrepNs), "us");
  Out.add("native.reg_spills", static_cast<double>(Spills), "count");
  Out.add("native.fused_ops", static_cast<double>(Fused), "count");
}

/// Geomean over programs of the median steady cycle time under \p Cfg.
double tierIterMs(const std::vector<Prog> &Progs, Vm::Config Cfg,
                  unsigned Warmup, unsigned Steady, const Reference &Ref,
                  SpanLog &Spans, uint64_t Parent, Outcome &Out) {
  std::vector<double> Medians;
  for (const Prog &P0 : Progs) {
    Prog P = P0;
    P.WarmupCycles = std::min(P.WarmupCycles, Warmup);
    RepStats R = runRep(P, Cfg, 0, Steady, Steady, Ref, Out, &Spans, Parent);
    if (!R.CycleMs.empty())
      Medians.push_back(median(R.CycleMs));
  }
  return geomean(Medians);
}

double usQuantile(const std::vector<double> &Ns, double Q) {
  return percentile(Ns, Q) * 1e-3;
}

} // namespace

void pb::reportLayers(const Options &O, const std::vector<Prog> &Progs,
                      uint64_t Rate, const TracedPass &Pass,
                      const Reference &Ref, SpanLog &Spans, Outcome &Out) {
  const unsigned Repeats = O.Tiny ? 1 : 5;
  const unsigned Steady = O.Tiny ? 1 : 3;
  SpanScope Probe(&Spans, "layers", 0);
  const double CalMs = calibrationMs();
  const size_t FirstProbe = Out.Metrics.size();
  probeFrontEnd(Progs, Repeats, Spans, Probe.id(), Out);

  // Execution tiers, each on the workload's own invalidation rate.
  Vm::Config Base = measuredConfig(TierStrategy::BaselineOnly, Rate, 1);
  Out.add("bc.iter_ms",
          tierIterMs(Progs, Base, 1, Steady, Ref, Spans, Probe.id(), Out),
          "ms");
  probeCompilers(Progs, Repeats, Ref, Spans, Probe.id(), Out);
  // The compile-time probes are scaled like every other time.
  double Scale = ReferenceCalibrationMs / (0.5 * (CalMs + calibrationMs()));
  for (size_t K = FirstProbe; K < Out.Metrics.size(); ++K)
    if (Out.Metrics[K].Unit == "us")
      Out.Metrics[K].Value *= Scale;
  Vm::Config Low = measuredConfig(TierStrategy::Normal, Rate, 1);
  Low.NativeTier = false;
  Vm::Config Nat = Low;
  Nat.NativeTier = true;
  unsigned W = O.Tiny ? 1 : 3;
  Out.add("lowcode.iter_ms",
          tierIterMs(Progs, Low, W, Steady, Ref, Spans, Probe.id(), Out),
          "ms");
  Out.add("native.iter_ms",
          tierIterMs(Progs, Nat, W, Steady, Ref, Spans, Probe.id(), Out),
          "ms");

  const LayerCounts &N = Pass.Normal, &D = Pass.Deoptless;
  LayerCounts Both = N;
  Both.add(D);
  double Ops = static_cast<double>(Pass.OpsNormal + Pass.OpsDeoptless);
  Out.add("opt.assume_checks_per_iter",
          Ops ? static_cast<double>(Both.AssumeChecks) / Ops : 0, "count");
  Out.add("compile.latency_us.p50", usQuantile(Both.CompileNs, 0.50), "us");
  Out.add("compile.latency_us.p99", usQuantile(Both.CompileNs, 0.99), "us");
  Out.add("compile.queue_wait_us.p99", usQuantile(Both.QueueWaitNs, 0.99),
          "us");
  Out.add("compile.compilations", static_cast<double>(Both.Compilations),
          "count");
  Out.add("compile.drain_ms", median(Pass.DrainMs), "ms");

  Out.add("osr.deopts", static_cast<double>(N.Deopts), "count");
  Out.add("osr.deopt_pause_us.p50", usQuantile(N.DeoptPauseNs, 0.50), "us");
  Out.add("osr.deopt_pause_us.p99", usQuantile(N.DeoptPauseNs, 0.99), "us");
  Out.add("osr.osr_in_entries", static_cast<double>(Both.OsrInEntries),
          "count");
  Out.add("osr.deoptless_attempts", static_cast<double>(D.DeoptlessAttempts),
          "count");
  Out.add("osr.deoptless_hit_ratio",
          D.DeoptlessAttempts ? static_cast<double>(D.DeoptlessHits) /
                                    static_cast<double>(D.DeoptlessAttempts)
                              : 0,
          "ratio");
  Out.add("osr.continuation_compiles",
          static_cast<double>(D.DeoptlessCompiles), "count");
  Out.add("osr.deoptless_rejected", static_cast<double>(D.DeoptlessRejected),
          "count");

  const struct {
    const char *Key;
    const LayerCounts &C;
    uint64_t Ops;
  } PerStrategy[] = {{"normal", N, Pass.OpsNormal},
                     {"deoptless", D, Pass.OpsDeoptless}};
  for (const auto &S : PerStrategy) {
    double Iters = S.Ops ? static_cast<double>(S.Ops) : 1;
    Out.add(std::string("runtime.alloc_mb_per_iter.") + S.Key,
            static_cast<double>(S.C.AllocBytes) / 1e6 / Iters, "MB");
    Out.add(std::string("runtime.allocs_per_iter.") + S.Key,
            static_cast<double>(S.C.Allocs) / Iters, "count");
  }
  Out.add("runtime.gc_pause_us.p99", usQuantile(Both.GcPauseNs, 0.99), "us");
  Out.add("runtime.gc_collections", static_cast<double>(Both.GcCollections),
          "count");
  Out.add("runtime.collect_us", median(Pass.CollectUs), "us");

  Out.add("server.gen_late_us.p99", percentile(Pass.GenLateUs, 0.99), "us");
  Out.add("server.backlog_max", static_cast<double>(Pass.BacklogMax),
          "count");
  Out.add("trace.overhead_pct",
          Pass.UntracedMs > 0 ? (Pass.TracedMs / Pass.UntracedMs - 1) * 100
                              : 0,
          "%");
}
