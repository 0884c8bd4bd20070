#include "testing/oracle.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "cqp/transitions.h"
#include "estimation/batch_evaluator.h"
#include "space/prepared_space.h"

namespace cqp::testing {

namespace {

// Tolerances for comparisons whose two sides are computed with different
// floating-point operation orders. Comparisons along a single ExtendWith
// chain are exact and use none of these.
constexpr double kDoiTol = 1e-12;        // absolute; doi lives in [0,1]
constexpr double kRelTol = 1e-9;         // relative, for cost/size

// Ulp-scale slack for differential verdicts. Search algorithms may
// accumulate StateParams incrementally in their own visitation order
// (cost-ascending for MinCost-BB, pick order for the greedy), which is the
// paper's O(1) incremental evaluation and differs from the canonical
// ascending-order evaluation in the last few ulps. A bound placed EXACTLY
// on a state's canonical parameters (the boundary regime) can therefore be
// classified differently by two correct implementations; disagreements
// within this slack are tolerated, anything larger is a violation.
constexpr double kUlpSlack = 1e-12;

bool RelLe(double a, double b) {
  return a <= b + kRelTol * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

bool NearEq(double a, double b, double tol) {
  return std::fabs(a - b) <= tol * (1.0 + std::max(std::fabs(a), std::fabs(b)));
}

/// Minimum signed slack of `s` against every active bound of `p`:
/// positive = strictly inside, negative = outside. Cost/size are measured
/// relative to the bound's magnitude, doi absolutely.
double BoundMargin(const cqp::ProblemSpec& p,
                   const estimation::StateParams& s) {
  double m = std::numeric_limits<double>::infinity();
  if (p.cmax_ms) {
    m = std::min(m, (*p.cmax_ms - s.cost_ms) /
                        std::max(1.0, std::fabs(*p.cmax_ms)));
  }
  if (p.dmin) m = std::min(m, s.doi - *p.dmin);
  if (p.smin) {
    m = std::min(m,
                 (s.size - *p.smin) / std::max(1.0, std::fabs(*p.smin)));
  }
  if (p.smax) {
    m = std::min(m,
                 (*p.smax - s.size) / std::max(1.0, std::fabs(*p.smax)));
  }
  return m;
}

std::string P17(const estimation::StateParams& p) {
  return StrFormat("(doi=%.17g cost=%.17g size=%.17g count=%u)", p.doi,
                   p.cost_ms, p.size, p.count);
}

/// Maps a position-set in a pointer vector (C, D or S) to the underlying
/// preference IndexSet the evaluator understands.
IndexSet MapPositions(const std::vector<int32_t>& vec,
                      const IndexSet& positions) {
  std::vector<int32_t> prefs;
  prefs.reserve(positions.size());
  for (int32_t pos : positions) prefs.push_back(vec[static_cast<size_t>(pos)]);
  return IndexSet::FromUnsorted(std::move(prefs));
}

IndexSet RandomSubset(Rng& rng, size_t k, double p = 0.5) {
  std::vector<int32_t> members;
  for (size_t i = 0; i < k; ++i) {
    if (rng.Bernoulli(p)) members.push_back(static_cast<int32_t>(i));
  }
  return IndexSet::FromUnsorted(std::move(members));
}

/// Checks (c): the paper's algebraic invariants, independent of any search
/// algorithm. Every expected value is recomputed from the raw preference
/// parameters (Formulas 6, 8, 10), never via the evaluator being tested.
void CheckEvaluatorInvariants(const CqpInstance& instance,
                              const CheckOptions& options,
                              CheckReport* report) {
  const auto& prefs = instance.space.prefs;
  const size_t k = instance.K();
  estimation::StateEvaluator evaluator = instance.space.MakeEvaluator();
  // Instance-derived stream: replaying a reproducer re-checks the exact same
  // subsets and chains.
  Rng rng(instance.seed * 0x9e3779b9u + 0xfeedULL);

  // The empty state must be the original query verbatim.
  estimation::StateParams empty = evaluator.EmptyState();
  if (empty.doi != 0.0 || empty.cost_ms != instance.space.base.cost_ms ||
      empty.size != instance.space.base.size || empty.count != 0) {
    report->Add("invariant-empty", "",
                "EmptyState() != (0, base_cost, base_size): " + P17(empty));
  }

  for (int trial = 0; trial < options.invariant_trials; ++trial) {
    IndexSet subset = RandomSubset(rng, k);
    estimation::StateParams got = evaluator.Evaluate(subset);

    // Evaluate(IndexSet) and EvaluateBits(Bits()) integrate members in the
    // same ascending order and must agree bit-for-bit.
    if (k < 64) {
      estimation::StateParams bits = evaluator.EvaluateBits(subset.Bits());
      if (got.doi != bits.doi || got.cost_ms != bits.cost_ms ||
          got.size != bits.size || got.count != bits.count) {
        report->Add("invariant-bits-parity", "",
                    subset.ToString() + ": Evaluate=" + P17(got) +
                        " EvaluateBits=" + P17(bits));
      }
    }

    if (got.count != subset.size()) {
      report->Add("invariant-count", "",
                  subset.ToString() + ": count=" + std::to_string(got.count));
    }

    // Formula 6 (cost additivity): Σ cost(Q ∧ p_i) in ascending member
    // order — the identical fp summation sequence, so exactly equal. The
    // empty state keeps the base cost.
    double want_cost = 0.0;
    for (int32_t i : subset) want_cost += prefs[static_cast<size_t>(i)].cost_ms;
    if (subset.empty()) want_cost = instance.space.base.cost_ms;
    if (got.cost_ms != want_cost) {
      report->Add("invariant-cost-additivity", "",
                  StrFormat("%s: cost=%.17g, Formula 6 gives %.17g",
                            subset.ToString().c_str(), got.cost_ms, want_cost));
    }

    // size = size(Q) × Π selectivity, same multiplication order → exact.
    double want_size = instance.space.base.size;
    for (int32_t i : subset) {
      want_size *= prefs[static_cast<size_t>(i)].selectivity;
    }
    if (got.size != want_size) {
      report->Add("invariant-size-product", "",
                  StrFormat("%s: size=%.17g, expected %.17g",
                            subset.ToString().c_str(), got.size, want_size));
    }

    // Formula 10 (noisy-or), stepwise — again the identical sequence.
    if (instance.space.conjunction_model == prefs::ConjunctionModel::kNoisyOr) {
      double want_doi = 0.0;
      for (int32_t i : subset) {
        want_doi = 1.0 - (1.0 - want_doi) * (1.0 - prefs[static_cast<size_t>(i)].doi);
      }
      if (got.doi != want_doi) {
        report->Add("invariant-doi-formula", "",
                    StrFormat("%s: doi=%.17g, Formula 10 gives %.17g",
                              subset.ToString().c_str(), got.doi, want_doi));
      }
      // And the closed form 1 - Π(1-d_i), order-insensitive up to ulps:
      // catches a wrong composition that happens to match some other
      // stepwise recurrence.
      double prod = 1.0;
      for (int32_t i : subset) prod *= 1.0 - prefs[static_cast<size_t>(i)].doi;
      if (std::fabs(got.doi - (1.0 - prod)) > kDoiTol) {
        report->Add("invariant-doi-closed-form", "",
                    StrFormat("%s: doi=%.17g vs closed form %.17g",
                              subset.ToString().c_str(), got.doi, 1.0 - prod));
      }
    }
    if (got.doi < 0.0 || got.doi > 1.0) {
      report->Add("invariant-doi-range", "", subset.ToString() + ": " + P17(got));
    }

    // Formulas 4/7/8 along an ExtendWith chain (exact: each step's fp
    // result is provably monotone — see docs/testing.md).
    estimation::StateParams chain = got;
    int32_t next = subset.empty() ? 0 : subset.Max() + 1;
    while (static_cast<size_t>(next) < k) {
      estimation::StateParams extended = evaluator.ExtendWith(chain, next);
      if (extended.cost_ms < chain.cost_ms) {
        report->Add("invariant-cost-monotone", "",
                    StrFormat("extend %d: cost %.17g -> %.17g", next,
                              chain.cost_ms, extended.cost_ms));
      }
      if (extended.size > chain.size) {
        report->Add("invariant-size-monotone", "",
                    StrFormat("extend %d: size %.17g -> %.17g", next,
                              chain.size, extended.size));
      }
      if (extended.doi < chain.doi - kDoiTol) {
        report->Add("invariant-doi-monotone", "",
                    StrFormat("extend %d: doi %.17g -> %.17g", next, chain.doi,
                              extended.doi));
      }
      chain = extended;
      next += static_cast<int32_t>(rng.Uniform(1, 3));
    }

    // Formula 8 across arbitrary subset ⊂ superset pairs (different
    // evaluation orders → tolerant comparison).
    IndexSet superset = subset;
    for (size_t i = 0; i < k; ++i) {
      int32_t idx = static_cast<int32_t>(i);
      if (!superset.Contains(idx) && rng.Bernoulli(0.3)) {
        superset = superset.WithAdded(idx);
      }
    }
    if (superset.size() > subset.size()) {
      estimation::StateParams sup = evaluator.Evaluate(superset);
      if (!RelLe(got.cost_ms, sup.cost_ms) && !subset.empty()) {
        report->Add("invariant-subset-cost", "",
                    subset.ToString() + " vs " + superset.ToString() + ": " +
                        P17(got) + " vs " + P17(sup));
      }
      if (!RelLe(sup.size, got.size)) {
        report->Add("invariant-subset-size", "",
                    subset.ToString() + " vs " + superset.ToString() + ": " +
                        P17(got) + " vs " + P17(sup));
      }
      if (sup.doi < got.doi - kDoiTol) {
        report->Add("invariant-subset-doi", "",
                    subset.ToString() + " vs " + superset.ToString() + ": " +
                        P17(got) + " vs " + P17(sup));
      }
    }
  }

  // Transition-effect signs (Observation 1): Horizontal adds a preference
  // (cost up, size down, doi up, whatever the space); Vertical moves down
  // the space's key order, so the key parameter moves in the space's
  // documented direction.
  struct SpaceCase {
    const char* label;
    const std::vector<int32_t>* vec;
  };
  const SpaceCase spaces[] = {{"D", &instance.space.D},
                              {"C", &instance.space.C},
                              {"S", &instance.space.S}};
  for (int trial = 0; trial < options.invariant_trials; ++trial) {
    const SpaceCase& sc = spaces[trial % 3];
    IndexSet state = RandomSubset(rng, k);
    estimation::StateParams from =
        evaluator.Evaluate(MapPositions(*sc.vec, state));

    // Horizontal requires a non-empty state (CHECKed in transitions.cc).
    std::optional<IndexSet> h;
    if (!state.empty()) h = cqp::Horizontal(state, k);
    if (h.has_value()) {
      if (*h != state.WithAdded(state.Max() + 1)) {
        report->Add("invariant-horizontal-shape", "",
                    state.ToString() + " -> " + h->ToString());
      }
      estimation::StateParams to =
          evaluator.Evaluate(MapPositions(*sc.vec, *h));
      if (!RelLe(from.cost_ms, to.cost_ms)) {
        report->Add("invariant-horizontal-cost", "",
                    StrFormat("%s %s: %s -> %s", sc.label,
                              state.ToString().c_str(), P17(from).c_str(),
                              P17(to).c_str()));
      }
      if (!RelLe(to.size, from.size)) {
        report->Add("invariant-horizontal-size", "",
                    StrFormat("%s %s: %s -> %s", sc.label,
                              state.ToString().c_str(), P17(from).c_str(),
                              P17(to).c_str()));
      }
      if (to.doi < from.doi - kDoiTol) {
        report->Add("invariant-horizontal-doi", "",
                    StrFormat("%s %s: %s -> %s", sc.label,
                              state.ToString().c_str(), P17(from).c_str(),
                              P17(to).c_str()));
      }
    }

    for (const IndexSet& v : cqp::VerticalNeighbors(state, k)) {
      estimation::StateParams to = evaluator.Evaluate(MapPositions(*sc.vec, v));
      bool ok = true;
      if (sc.vec == &instance.space.C) {
        ok = RelLe(to.cost_ms, from.cost_ms);  // C descends by cost
      } else if (sc.vec == &instance.space.S) {
        ok = RelLe(from.size, to.size);  // S ascends by size
      } else {
        ok = to.doi <= from.doi + kDoiTol;  // D descends by doi
      }
      if (!ok) {
        report->Add("invariant-vertical-sign", "",
                    StrFormat("%s %s -> %s: %s -> %s", sc.label,
                              state.ToString().c_str(), v.ToString().c_str(),
                              P17(from).c_str(), P17(to).c_str()));
      }
    }

    // Horizontal2 candidates: exactly the complement, ascending.
    std::vector<int32_t> h2 = cqp::Horizontal2Candidates(state, k);
    std::vector<int32_t> complement;
    for (size_t i = 0; i < k; ++i) {
      if (!state.Contains(static_cast<int32_t>(i))) {
        complement.push_back(static_cast<int32_t>(i));
      }
    }
    if (h2 != complement) {
      report->Add("invariant-horizontal2", "",
                  state.ToString() + ": candidates are not the ascending "
                  "complement");
    }
  }
}

/// Checks (g), evaluator level: the SoA BatchEvaluator against the scalar
/// StateEvaluator, operator== on every field. The batch evaluator promises
/// bit-for-bit parity (each lane runs the identical fp op sequence — see
/// batch_evaluator.h), so no tolerance is involved anywhere here.
void CheckBatchKernelParity(const CqpInstance& instance,
                            const CheckOptions& options,
                            CheckReport* report) {
  const size_t k = instance.K();
  if (k == 0 || k >= 64) return;
  estimation::StateEvaluator evaluator = instance.space.MakeEvaluator();
  estimation::BatchEvaluator batch(instance.space.base, instance.space.prefs,
                                   instance.space.conjunction_model);
  Rng rng(instance.seed * 0x9e3779b9u + 0xbeefULL);
  estimation::BatchEvaluator::Results results;
  const uint64_t full = (uint64_t{1} << k) - 1;

  auto same = [](const estimation::StateParams& a,
                 const estimation::StateParams& b) {
    return a.doi == b.doi && a.cost_ms == b.cost_ms && a.size == b.size &&
           a.count == b.count;
  };

  for (int trial = 0; trial < options.invariant_trials; ++trial) {
    // EvaluateMasks over a small frontier that always contains the empty
    // and supreme states.
    std::vector<uint64_t> masks = {0, full};
    const size_t extra = 1 + static_cast<size_t>(rng.Uniform(0, 4));
    for (size_t i = 0; i < extra; ++i) {
      masks.push_back(RandomSubset(rng, k).Bits());
    }
    batch.EvaluateMasks(masks.data(), masks.size(), &results);
    for (size_t l = 0; l < masks.size(); ++l) {
      estimation::StateParams want = evaluator.EvaluateBits(masks[l]);
      if (!same(results.Get(l), want)) {
        report->Add(
            "batch-kernel", "",
            StrFormat("EvaluateMasks lane %zu (mask %llx): %s != %s", l,
                      static_cast<unsigned long long>(masks[l]),
                      P17(results.Get(l)).c_str(), P17(want).c_str()));
        return;  // one witness suffices; later lanes would just repeat it
      }
    }

    // EvaluateSequence from a random parent over a shuffled sequence of
    // non-members (shuffled because callers like MinCost-BB hand over
    // cost-ordered, not index-ordered, sequences).
    IndexSet parent_set = RandomSubset(rng, k, 0.3);
    estimation::StateParams parent = evaluator.Evaluate(parent_set);
    std::vector<int32_t> seq;
    for (size_t i = 0; i < k; ++i) {
      if (!parent_set.Contains(static_cast<int32_t>(i))) {
        seq.push_back(static_cast<int32_t>(i));
      }
    }
    rng.Shuffle(seq);
    if (seq.size() > 8) seq.resize(8);
    const uint64_t seq_full =
        seq.empty() ? 0 : (uint64_t{1} << seq.size()) - 1;
    // A partial lane set (folded per lane) and the full 2^L subset family
    // in shuffled lane order (built by prefix sharing).
    std::vector<uint64_t> partial = {0, seq_full};
    for (int i = 0; i < 3; ++i) partial.push_back(rng.Next() & seq_full);
    std::vector<uint64_t> family(size_t{1} << seq.size());
    for (size_t m = 0; m < family.size(); ++m) family[m] = m;
    rng.Shuffle(family);
    for (const std::vector<uint64_t>* lane_masks : {&partial, &family}) {
      batch.EvaluateSequence(parent, seq.data(), seq.size(),
                             lane_masks->data(), lane_masks->size(),
                             &results);
      for (size_t l = 0; l < lane_masks->size(); ++l) {
        const uint64_t mask = (*lane_masks)[l];
        estimation::StateParams want = parent;
        for (size_t j = 0; j < seq.size(); ++j) {
          if ((mask >> j) & 1) want = evaluator.ExtendWith(want, seq[j]);
        }
        if (!same(results.Get(l), want)) {
          report->Add(
              "batch-kernel", "",
              StrFormat("EvaluateSequence lane %zu of %zu (mask %llx): %s "
                        "!= %s",
                        l, lane_masks->size(),
                        static_cast<unsigned long long>(mask),
                        P17(results.Get(l)).c_str(), P17(want).c_str()));
          return;
        }
      }
    }

    // ExtendBatch lane l == ExtendWith(parent, seq[l]).
    if (!seq.empty()) {
      batch.ExtendBatch(parent, seq.data(), seq.size(), &results);
      for (size_t l = 0; l < seq.size(); ++l) {
        estimation::StateParams want = evaluator.ExtendWith(parent, seq[l]);
        if (!same(results.Get(l), want)) {
          report->Add("batch-kernel", "",
                      StrFormat("ExtendBatch lane %zu (pref %d): %s != %s", l,
                                seq[l], P17(results.Get(l)).c_str(),
                                P17(want).c_str()));
          return;
        }
      }
    }
  }
}

}  // namespace

std::string Violation::ToString() const {
  std::string out = check;
  if (!algorithm.empty()) out += "[" + algorithm + "]";
  out += ": " + detail;
  return out;
}

void CheckReport::Add(std::string check, std::string algorithm,
                      std::string detail) {
  violations.push_back(
      {std::move(check), std::move(algorithm), std::move(detail)});
}

std::string CheckReport::ToString() const {
  std::string out;
  for (const Violation& v : violations) out += v.ToString() + "\n";
  return out;
}

bool CheckReport::Has(const std::string& check) const {
  for (const Violation& v : violations) {
    if (v.check == check) return true;
  }
  return false;
}

std::string DiffSolutions(const cqp::Solution& a, const cqp::Solution& b) {
  if (a.feasible != b.feasible) {
    return StrFormat("feasible %d vs %d", a.feasible, b.feasible);
  }
  if (a.degraded != b.degraded) {
    return StrFormat("degraded %d vs %d", a.degraded, b.degraded);
  }
  if (a.chosen != b.chosen) {
    return "chosen " + a.chosen.ToString() + " vs " + b.chosen.ToString();
  }
  if (a.params.doi != b.params.doi || a.params.cost_ms != b.params.cost_ms ||
      a.params.size != b.params.size || a.params.count != b.params.count) {
    return "params " + P17(a.params) + " vs " + P17(b.params);
  }
  return "";
}

CheckReport CheckInstance(const CqpInstance& instance,
                          const CheckOptions& options) {
  CheckReport report;

  Status valid = instance.problem.Validate();
  if (!valid.ok()) {
    report.Add("instance-invalid", "", std::string(valid.message()));
    return report;
  }

  estimation::StateEvaluator evaluator = instance.space.MakeEvaluator();
  const bool empty_feasible =
      instance.problem.IsFeasible(evaluator.EmptyState());

  // The Exhaustive oracle's answer, computed once (it is also one of the
  // algorithms under test, but with an unlimited budget it IS ground truth:
  // it enumerates all 2^K states).
  cqp::Solution oracle;
  bool have_oracle = false;
  if (options.check_oracle && instance.K() <= options.max_oracle_k) {
    auto algo = cqp::GetAlgorithm("Exhaustive");
    if (algo.ok()) {
      cqp::SearchContext ctx;
      auto solved = (*algo)->Solve(instance.space, instance.problem, ctx);
      ++report.solves;
      if (!solved.ok()) {
        report.Add("oracle-error", "Exhaustive",
                   std::string(solved.status().message()));
      } else {
        oracle = *solved;
        have_oracle = true;
        if (empty_feasible && !oracle.feasible) {
          report.Add("oracle", "Exhaustive",
                     "empty state is feasible but the oracle says infeasible");
        }
      }
    }
  }

  for (const std::string& name : cqp::AlgorithmNames()) {
    auto lookup = cqp::GetAlgorithm(name);
    if (!lookup.ok()) {
      report.Add("registry", name, std::string(lookup.status().message()));
      continue;
    }
    const cqp::Algorithm* algo = *lookup;
    if (!algo->Supports(instance.problem)) continue;
    ++report.algorithms_checked;

    cqp::Solution sol;
    if (name == "Exhaustive" && have_oracle) {
      sol = oracle;  // already solved above
    } else {
      cqp::SearchContext ctx;
      auto solved = algo->Solve(instance.space, instance.problem, ctx);
      ++report.solves;
      if (!solved.ok()) {
        report.Add("solve-error", name, std::string(solved.status().message()));
        continue;
      }
      sol = *solved;
    }

    if (sol.degraded) {
      report.Add("degraded-unlimited", name,
                 "degraded solution under an unlimited budget");
    }

    // (b) Feasibility: re-evaluate the chosen subset from scratch and check
    // the claimed params and the bounds.
    bool params_ok = true;
    if (options.check_feasibility) {
      if (!sol.chosen.empty() &&
          (sol.chosen.Min() < 0 ||
           static_cast<size_t>(sol.chosen.Max()) >= instance.K())) {
        report.Add("feasibility-range", name,
                   "chosen " + sol.chosen.ToString() + " out of [0,K)");
        params_ok = false;
      } else if (sol.feasible) {
        // Claimed params may come from an incremental ExtendWith chain in
        // the algorithm's own visitation order; demand agreement with the
        // canonical evaluation only up to ulp slack.
        estimation::StateParams recheck = evaluator.Evaluate(sol.chosen);
        if (!NearEq(recheck.doi, sol.params.doi, kUlpSlack) ||
            !NearEq(recheck.cost_ms, sol.params.cost_ms, kUlpSlack) ||
            !NearEq(recheck.size, sol.params.size, kUlpSlack) ||
            recheck.count != sol.params.count) {
          report.Add("feasibility-params", name,
                     "claimed " + P17(sol.params) + " but " +
                         sol.chosen.ToString() + " evaluates to " +
                         P17(recheck));
          params_ok = false;
        }
        if (BoundMargin(instance.problem, recheck) < -kUlpSlack) {
          report.Add("feasibility", name,
                     "claimed-feasible " + sol.chosen.ToString() + " = " +
                         P17(recheck) + " violates " +
                         instance.problem.ToString());
        }
      } else {
        // All-Preferences deliberately deviates from the "every algorithm
        // considers the empty state" contract (it only ever proposes all of
        // P), so "missed the empty state" is not a bug for it.
        if (empty_feasible && name != "All-Preferences") {
          report.Add("feasibility-missed-empty", name,
                     "reported infeasible but the empty state is feasible");
        }
      }
    }

    // (a) Exactness against the oracle. Both chosen subsets are re-evaluated
    // canonically first, so equal subsets compare bit-identically and the
    // comparison is independent of each algorithm's internal accumulation
    // order; residual cross-subset ulp noise is absorbed by kUlpSlack.
    // A feasible/infeasible disagreement is tolerated only when the feasible
    // side's solution sits within ulp slack of a bound (the boundary regime
    // pins bounds exactly on reachable states, where visitation order may
    // legitimately flip the verdict).
    if (have_oracle && params_ok && algo->IsExactFor(instance.problem) &&
        name != "Exhaustive") {
      if (sol.feasible != oracle.feasible) {
        const cqp::Solution& witness = sol.feasible ? sol : oracle;
        double margin = BoundMargin(instance.problem,
                                    evaluator.Evaluate(witness.chosen));
        if (std::fabs(margin) > kUlpSlack) {
          report.Add("oracle", name,
                     StrFormat("feasible=%d but oracle says %d (witness "
                               "margin %.3g)",
                               sol.feasible, oracle.feasible, margin));
        }
      } else if (sol.feasible) {
        estimation::StateParams oracle_canon = evaluator.Evaluate(oracle.chosen);
        double got = instance.problem.ObjectiveValue(
            evaluator.Evaluate(sol.chosen));
        double want = instance.problem.ObjectiveValue(oracle_canon);
        // When the oracle's optimum sits bit-exactly on a bound, whether
        // that state is feasible at all depends on fp evaluation order, so
        // "the" optimum is not well defined and a macroscopically different
        // answer is not evidence of a bug. Everywhere else exactness is
        // demanded to the last ulp.
        bool oracle_pinned =
            std::fabs(BoundMargin(instance.problem, oracle_canon)) <=
            kUlpSlack;
        if (got != want && !NearEq(got, want, kUlpSlack) && !oracle_pinned) {
          report.Add("oracle", name,
                     StrFormat("objective %.17g (chosen %s) != oracle %.17g "
                               "(chosen %s)",
                               got, sol.chosen.ToString().c_str(), want,
                               oracle.chosen.ToString().c_str()));
        }
      }
    }
    // A heuristic can be suboptimal but must never beat the oracle beyond
    // ulp slack (that would mean the oracle — or the solution — is wrong).
    if (have_oracle && params_ok && sol.feasible && oracle.feasible) {
      double got = instance.problem.ObjectiveValue(
          evaluator.Evaluate(sol.chosen));
      double want = instance.problem.ObjectiveValue(
          evaluator.Evaluate(oracle.chosen));
      if (got > want && !NearEq(got, want, kUlpSlack)) {
        report.Add("oracle-beaten", name,
                   "solution " + P17(sol.params) + " beats the oracle " +
                       P17(oracle.params));
      }
    }
    if (have_oracle && sol.feasible && !oracle.feasible && params_ok &&
        BoundMargin(instance.problem, evaluator.Evaluate(sol.chosen)) >
            kUlpSlack) {
      report.Add("oracle-beaten", name,
                 "found a robustly feasible state where the oracle found "
                 "none");
    }

    // Determinism: an identical Solve() must return an identical Solution.
    if (options.check_determinism && name != "Exhaustive") {
      cqp::SearchContext ctx;
      auto again = algo->Solve(instance.space, instance.problem, ctx);
      ++report.solves;
      if (!again.ok()) {
        report.Add("determinism", name, "second solve failed: " +
                                            std::string(again.status().message()));
      } else {
        std::string diff = DiffSolutions(sol, *again);
        if (!diff.empty()) report.Add("determinism", name, diff);
      }
    }

    // (g) Batch-evaluation parity, solution level: `sol` above ran with the
    // SoA batch path enabled (the default context turns it on), so a
    // forced-scalar re-solve must reproduce it. Field-for-field
    // for every algorithm except MinCost-BB, whose batched tails evaluate
    // states its scalar recursion prunes and may therefore record a
    // different equal-cost incumbent; there feasibility (with the usual
    // exact-boundary escape) and the canonical objective value are compared.
    if (options.check_batch_parity && instance.K() < 64) {
      cqp::SearchContext ctx;
      ctx.allow_batch_eval = false;
      auto scalar = algo->Solve(instance.space, instance.problem, ctx);
      ++report.solves;
      if (!scalar.ok()) {
        report.Add("batch-parity", name,
                   "forced-scalar solve failed: " +
                       std::string(scalar.status().message()));
      } else if (name == "MinCost-BB") {
        const cqp::Solution& s = *scalar;
        if (sol.feasible != s.feasible) {
          const cqp::Solution& witness = sol.feasible ? sol : s;
          double margin = BoundMargin(instance.problem,
                                      evaluator.Evaluate(witness.chosen));
          if (std::fabs(margin) > kUlpSlack) {
            report.Add("batch-parity", name,
                       StrFormat("batch feasible=%d scalar=%d (witness "
                                 "margin %.3g)",
                                 sol.feasible, s.feasible, margin));
          }
        } else if (sol.feasible) {
          double got = instance.problem.ObjectiveValue(
              evaluator.Evaluate(sol.chosen));
          double want = instance.problem.ObjectiveValue(
              evaluator.Evaluate(s.chosen));
          if (got != want && !NearEq(got, want, kUlpSlack)) {
            report.Add("batch-parity", name,
                       StrFormat("batch objective %.17g (chosen %s) != "
                                 "scalar %.17g (chosen %s)",
                                 got, sol.chosen.ToString().c_str(), want,
                                 s.chosen.ToString().c_str()));
          }
        }
      } else {
        std::string diff = DiffSolutions(sol, *scalar);
        if (!diff.empty()) report.Add("batch-parity", name, diff);
      }
    }

    // (e) Tight budget: the solve must degrade (not error), stay feasible,
    // and be tagged; an untripped budget must not change the answer.
    if (options.check_budget) {
      SearchBudget budget;
      budget.max_expansions = options.budget_expansions;
      cqp::SearchContext ctx{budget};
      auto bounded = algo->Solve(instance.space, instance.problem, ctx);
      ++report.solves;
      if (!bounded.ok()) {
        report.Add("budget-error", name,
                   "tight budget produced an error instead of a degraded "
                   "solution: " +
                       std::string(bounded.status().message()));
      } else {
        const cqp::Solution& b = *bounded;
        if (ctx.exhausted() && !b.degraded) {
          report.Add("budget-untagged", name,
                     "budget tripped (" +
                         std::string(BudgetExhaustionName(ctx.exhaustion())) +
                         ") but Solution::degraded is false");
        }
        if (!ctx.exhausted()) {
          std::string diff = DiffSolutions(sol, b);
          if (!diff.empty()) {
            report.Add("budget-parity", name,
                       "untripped budget changed the answer: " + diff);
          }
        }
        if (b.feasible) {
          estimation::StateParams recheck = evaluator.Evaluate(b.chosen);
          if (BoundMargin(instance.problem, recheck) < -kUlpSlack) {
            report.Add("budget-feasibility", name,
                       "degraded solution " + b.chosen.ToString() + " = " +
                           P17(recheck) + " violates " +
                           instance.problem.ToString());
          }
        }
      }
    }
  }

  // (f) Prepared-space parity. The per-problem view of a shared
  // PreparedSpace must keep exactly the prefs the monotone bounds allow
  // (a pref with cost > cmax or size < smin can appear in no feasible
  // state, so dropping it is answer-preserving), and Exhaustive on the
  // view — batched (the default context) and forced-scalar — must
  // reproduce the full-space oracle once the view's indices are mapped
  // back.
  if (options.check_prepared) {
    std::shared_ptr<const space::PreparedSpace> prepared =
        space::PreparedSpace::Create(instance.space);
    std::shared_ptr<const space::PreferenceSpaceResult> view =
        prepared->ForProblem(instance.problem);
    std::vector<int32_t> back;  // view index -> full-space index
    for (size_t i = 0; i < instance.K(); ++i) {
      if (!space::PrunedByProblem(instance.space.prefs[i], instance.problem)) {
        back.push_back(static_cast<int32_t>(i));
      }
    }
    if (back.size() != view->K()) {
      report.Add("prepared-view", "",
                 StrFormat("view has K=%zu but %zu prefs survive the bounds",
                           view->K(), back.size()));
    } else {
      bool fields_ok = true;
      for (size_t i = 0; i < view->K() && fields_ok; ++i) {
        const estimation::ScoredPreference& got = view->prefs[i];
        const estimation::ScoredPreference& want =
            instance.space.prefs[static_cast<size_t>(back[i])];
        if (got.doi != want.doi || got.cost_ms != want.cost_ms ||
            got.selectivity != want.selectivity || got.size != want.size) {
          report.Add("prepared-view", "",
                     StrFormat("view pref %zu is not full-space pref %d "
                               "bit-for-bit",
                               i, back[i]));
          fields_ok = false;
        }
      }
      if (fields_ok && have_oracle && view->K() <= options.max_oracle_k) {
        auto algo = cqp::GetAlgorithm("Exhaustive");
        if (algo.ok()) {
          for (bool batched : {true, false}) {
            const char* phase = batched ? "batched" : "scalar";
            cqp::SearchContext ctx;
            ctx.allow_batch_eval = batched;
            auto solved = (*algo)->Solve(*view, instance.problem, ctx);
            ++report.solves;
            if (!solved.ok()) {
              report.Add("prepared-oracle", "Exhaustive",
                         std::string(phase) + ": " +
                             std::string(solved.status().message()));
              break;
            }
            cqp::Solution remapped = *solved;
            std::vector<int32_t> mapped;
            for (int32_t i : solved->chosen) {
              mapped.push_back(back[static_cast<size_t>(i)]);
            }
            remapped.chosen = IndexSet::FromUnsorted(std::move(mapped));
            std::string diff = DiffSolutions(remapped, oracle);
            if (!diff.empty()) {
              report.Add("prepared-oracle", "Exhaustive",
                         std::string(phase) + ": " + diff);
            }
          }
        }
      }
    }
  }

  if (options.check_invariants) {
    CheckEvaluatorInvariants(instance, options, &report);
  }
  if (options.check_batch_parity) {
    CheckBatchKernelParity(instance, options, &report);
  }
  return report;
}

}  // namespace cqp::testing
