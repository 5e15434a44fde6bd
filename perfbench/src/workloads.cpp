//===-- perfbench/src/workloads.cpp - Workload definitions ----------------===//
//
// Part of the deoptless reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "suite/programs.h"

#include <set>

using namespace pb;

namespace {

/// `Count` repetitions of one step.
void repeat(std::vector<Step> &Out, unsigned Count, const Step &S) {
  for (unsigned K = 0; K < Count; ++K)
    Out.push_back(S);
}

/// The Fig. 6 main suite at its CI sizes, one driver call per iteration.
std::vector<Prog> mainSuitePrograms() {
  size_t N = 0;
  const rjit::suite::Program *Suite = rjit::suite::mainSuite(N);
  std::vector<Prog> Out;
  for (size_t K = 0; K < N; ++K)
    Out.push_back({Suite[K].Name, Suite[K].Setup,
                   {{"", Suite[K].Driver, Suite[K].Name}}, 3});
  return Out;
}

/// Genuine type-phase changes. Every cycle revisits every phase, so each
/// fresh Vm meets several distinct deopt contexts and keeps meeting them.
std::vector<Prog> phasePrograms() {
  using rjit::suite::byName;
  std::vector<Prog> Out;

  // Fig. 4: sum over int, then real, then complex, then real data.
  Prog Sum{"sum",
           std::string(byName("sum")->Setup) +
               "d_int <- 1:50000\n"
               "d_real <- as.numeric(1:50000)\n"
               "d_cplx <- as.complex(1:50000)\n",
           {},
           1};
  repeat(Sum.Cycle, 3, {"", "sum_data(d_int)", "sum/int"});
  repeat(Sum.Cycle, 3, {"", "sum_data(d_real)", "sum/real"});
  repeat(Sum.Cycle, 3, {"", "sum_data(d_cplx)", "sum/cplx"});
  repeat(Sum.Cycle, 3, {"", "sum_data(d_real)", "sum/real"});
  Out.push_back(Sum);

  // Fig. 10: one column sum per iteration over a table whose columns
  // alternate integer and double after the fifth.
  constexpr unsigned Cols = 12;
  Prog Colsum{"colsum",
              std::string(byName("colsum")->Setup) +
                  "t <- make_table(" + std::to_string(Cols) + "L, 20000L)\n",
              {},
              1};
  for (unsigned C = 1; C <= Cols; ++C)
    Colsum.Cycle.push_back({"", "col_f(" + std::to_string(C) + "L, t)",
                            "colsum/" + std::to_string(C)});
  Out.push_back(Colsum);

  // Fig. 11 rsa: the key parameter changes type (int -> double) and back.
  Prog Rsa{"rsa", byName("rsa")->Setup, {}, 1};
  Rsa.Cycle.push_back({"key <- 65L", "rsa_run(key, 1000L)", "rsa/int"});
  repeat(Rsa.Cycle, 2, {"", "rsa_run(key, 1000L)", "rsa/int"});
  Rsa.Cycle.push_back({"key <- 65", "rsa_run(key, 1000L)", "rsa/real"});
  repeat(Rsa.Cycle, 2, {"", "rsa_run(key, 1000L)", "rsa/real"});
  Out.push_back(Rsa);

  // Fig. 11 shared: one helper fed ints and reals by two callers.
  Out.push_back({"shared",
                 byName("shared")->Setup,
                 {{"", "shared_caller_int(5000L) + shared_caller_real(5000L)",
                   "shared"}},
                 3});
  return Out;
}

} // namespace

bool pb::batchWorkload(const std::string &Name, BatchWorkload &Out) {
  if (Name == "steady") {
    Out = {mainSuitePrograms(), 0};
    return true;
  }
  if (Name == "misspec") {
    // The paper's §5.1 methodology at fig06's rate.
    Out = {mainSuitePrograms(), 2000};
    return true;
  }
  if (Name == "phases") {
    Out = {phasePrograms(), 0};
    return true;
  }
  return false;
}

// A copy of the query service in bench/server_harness.cpp: volcano-style
// aggregations over shared int and real data, plus closure churn that
// strands one Env<->closure cycle per mk(i) call for the cycle collector.
const char *const pb::ServerSetup = R"(
q_sum <- function(data) {
  total <- 0L
  for (i in 1:length(data)) total <- total + data[[i]]
  total
}
q_filter_sum <- function(data, lo) {
  total <- 0
  for (i in 1:length(data)) {
    x <- data[[i]]
    if (x > lo) total <- total + x
  }
  total
}
q_dot <- function(a, b) {
  total <- 0
  for (i in 1:length(a)) total <- total + a[[i]] * b[[i]]
  total
}
q_minmax <- function(data) {
  mn <- data[[1]]
  mx <- data[[1]]
  for (i in 1:length(data)) {
    x <- data[[i]]
    if (x < mn) mn <- x
    if (x > mx) mx <- x
  }
  mx - mn
}
q_churn <- function(n) {
  mk <- function(i) {
    h <- function(x) x + i
    h(i)
  }
  s <- 0L
  for (i in 1:n) s <- s + mk(i)
  s
}
ints <- 1:256
reals <- as.numeric(1:256) * 0.5
)";

const std::vector<std::string> &pb::serverMix() {
  // Weighted by repetition, as in the server harness.
  static const std::vector<std::string> Mix = {
      "q_sum(ints)",          "q_sum(ints)",        "q_sum(ints)",
      "q_sum(reals)",         "q_sum(reals)",       "q_filter_sum(reals, 64)",
      "q_dot(reals, ints)",   "q_minmax(ints)",     "q_churn(32L)",
  };
  return Mix;
}

std::string pb::serverKey(const std::string &Request) {
  return "server/" + Request;
}

std::vector<Prog> pb::serverProgs() {
  std::vector<Prog> Out;
  std::set<std::string> Seen;
  for (const std::string &R : serverMix())
    if (Seen.insert(R).second)
      Out.push_back({R, ServerSetup, {{"", R, serverKey(R)}}, 3});
  return Out;
}
