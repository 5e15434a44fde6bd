//===-- perfbench/src/main.cpp - Benchmark entry point --------------------===//
//
// Part of the deoptless reproduction. MIT license.
//
// Usage:
//   perfbench --workload steady|misspec|phases|server --seed N --seconds S
//             --trace 0|1 [--tiny] [--spans FILE]
//   perfbench --capture-reference FILE
//
// Prints every metric by name with its unit, then, as the last line, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer metrics. Exits
// non-zero when any operation raised or returned a wrong result.
//
//===----------------------------------------------------------------------===//

#include "runners.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>

using namespace pb;
using namespace rjit;

namespace {

/// Environment switches that silently change the measured program.
constexpr const char *ForbiddenEnv[] = {"RJIT_NATIVE_TIER", "RJIT_NATIVE_V2",
                                        "RJIT_TRACE"};

int usage(const char *Msg) {
  fprintf(stderr,
          "perfbench: %s\nusage: perfbench --workload "
          "steady|misspec|phases|server --seed N --seconds S --trace 0|1 "
          "[--tiny] [--spans FILE]\n"
          "       perfbench --capture-reference FILE\n",
          Msg);
  return 2;
}

/// Records every operation's result from the BaselineOnly tier, which
/// shares no code with the optimizing tiers. Two cycles per program: a key
/// must give one result, or the reference would be meaningless.
int captureReference(const std::string &Path) {
  std::vector<Prog> All;
  for (const char *W : {"steady", "phases"}) {
    BatchWorkload B;
    batchWorkload(W, B);
    All.insert(All.end(), B.Progs.begin(), B.Progs.end());
  }
  for (const Prog &P : serverProgs())
    All.push_back(P);
  std::map<std::string, std::string> Results;
  for (const Prog &P : All) {
    Vm V(measuredConfig(TierStrategy::BaselineOnly, 0, 1));
    V.eval(P.Setup);
    for (int C = 0; C < 2; ++C)
      for (const Step &S : P.Cycle) {
        if (!S.Pre.empty())
          V.eval(S.Pre);
        std::string Shown = V.eval(S.Driver).show();
        auto [It, New] = Results.insert({S.Key, Shown});
        if (!New && It->second != Shown) {
          fprintf(stderr, "perfbench: %s is not deterministic\n",
                  S.Key.c_str());
          return 1;
        }
      }
  }
  std::ofstream Out(Path);
  Out << "# Expected result of every benchmark operation (key <TAB> "
         "printed value),\n# captured from the BaselineOnly tier by "
         "`perfbench --capture-reference`.\n";
  for (const auto &[Key, Shown] : Results)
    Out << Key << '\t' << Shown << '\n';
  return Out ? 0 : 1;
}

void printResult(const Outcome &O) {
  for (const Outcome::Metric &M : O.Metrics)
    printf("%-36s %16.6f %s\n", M.Name.c_str(), M.Value, M.Unit.c_str());
  printf("# operations: %llu attempted, %llu failed\n",
         (unsigned long long)O.Attempted, (unsigned long long)O.Failed);
  printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
         "\"metrics\": {",
         O.Failed ? "false" : "true", (unsigned long long)O.Attempted,
         (unsigned long long)O.Failed);
  for (size_t K = 0; K < O.Metrics.size(); ++K)
    printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", K ? ", " : "",
           O.Metrics[K].Name.c_str(), O.Metrics[K].Value,
           O.Metrics[K].Unit.c_str());
  printf("}}\n");
}

} // namespace

int main(int Argc, char **Argv) {
  for (const char *Var : ForbiddenEnv)
    if (getenv(Var)) {
      fprintf(stderr,
              "perfbench: %s is set; it changes the measured program. "
              "Unset it to run the benchmark.\n",
              Var);
      return 2;
    }

  Options O;
  bool HaveSeed = false, HaveSeconds = false, HaveTrace = false;
  for (int K = 1; K < Argc; ++K) {
    std::string A = Argv[K];
    const char *Val = K + 1 < Argc ? Argv[K + 1] : nullptr;
    if (A == "--tiny") {
      O.Tiny = true;
      continue;
    }
    if (!Val)
      return usage(("missing value for " + A).c_str());
    ++K;
    char *End = nullptr;
    if (A == "--capture-reference")
      return captureReference(Val);
    if (A == "--workload") {
      O.Workload = Val;
    } else if (A == "--seed") {
      O.Seed = strtoull(Val, &End, 10);
      HaveSeed = *Val && !*End;
    } else if (A == "--seconds") {
      O.Seconds = strtod(Val, &End);
      HaveSeconds = *Val && !*End && O.Seconds > 0 && O.Seconds <= 600;
    } else if (A == "--trace") {
      HaveTrace = !strcmp(Val, "0") || !strcmp(Val, "1");
      O.Trace = !strcmp(Val, "1");
    } else if (A == "--spans") {
      O.SpansPath = Val;
    } else {
      return usage(("unknown option " + A).c_str());
    }
  }
  if (!HaveSeed || !HaveSeconds || !HaveTrace)
    return usage("--seed, --seconds and --trace need valid values");
  BatchWorkload Batch;
  bool IsBatch = batchWorkload(O.Workload, Batch);
  if (!IsBatch && O.Workload != "server")
    return usage(("unknown workload '" + O.Workload + "'").c_str());

  Reference Ref;
  std::string Error;
  if (!Ref.load(O.ReferencePath, Error)) {
    fprintf(stderr, "perfbench: %s\n", Error.c_str());
    return 2;
  }

  printPinnedConfig(O);
  Outcome Out;
  if (IsBatch)
    runBatch(O, Batch, Ref, Out);
  else
    runServer(O, Ref, Out);
  if (!O.Trace)
    Out.add("ok_frac",
            Out.Attempted ? 1.0 - static_cast<double>(Out.Failed) /
                                      static_cast<double>(Out.Attempted)
                          : 0,
            "fraction");
  printResult(Out);
  return Out.Failed || !Out.Attempted ? 1 : 0;
}
