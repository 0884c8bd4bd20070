// Differential & metamorphic fuzzing driver for the CQP engine.
//
// Modes:
//   cqp_fuzz --count 10000            fixed instance budget (default 1000)
//   cqp_fuzz --duration 600           run for N seconds instead
//   cqp_fuzz --replay a.cqprepro ...  re-check reproducer files
//   cqp_fuzz --minimize a.cqprepro    shrink a failing reproducer further
//   cqp_fuzz --pipeline               end-to-end path-parity sweep;
//                                     --count scales the seeds swept
//   cqp_fuzz --batch-eval             only the SoA/SIMD batch-parity checks
//   cqp_fuzz --rewrite                semantic-rewrite metamorphic campaign
//                                     (optimized vs unoptimized equality,
//                                     vacuity of pruned candidates,
//                                     constraint-revision invalidation);
//                                     --count scales the seeds swept
//
// On a violation the instance is delta-debugged down and written as a
// self-contained .cqprepro file (see docs/testing.md); exit status is the
// number of failing instances (capped at 125).

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "testing/generator.h"
#include "testing/instance.h"
#include "testing/isolation.h"
#include "testing/oracle.h"
#include "testing/pipeline_check.h"
#include "testing/rewrite_check.h"
#include "testing/shrinker.h"

namespace {

using cqp::testing::CheckInstance;
using cqp::testing::CheckOptions;
using cqp::testing::CheckReport;
using cqp::testing::CqpInstance;
using cqp::testing::GeneratorConfig;
using cqp::testing::IsolatedOutcome;

/// One instance's checks, run in a forked child so that a CHECK abort or
/// segfault in an algorithm is recorded as a failure instead of taking the
/// whole campaign down.
IsolatedOutcome CheckIsolated(const CqpInstance& instance,
                              const CheckOptions& options) {
  return cqp::testing::RunIsolated([&](std::string* text, int* solves) {
    CheckReport report = CheckInstance(instance, options);
    *text = report.ToString();
    *solves = static_cast<int>(report.solves);
    return !report.ok();
  });
}

struct Args {
  uint64_t seed = 1;
  uint64_t count = 1000;
  double duration_s = 0.0;  ///< > 0 switches to the timed mode
  GeneratorConfig generator;
  CheckOptions check;
  std::string out_dir = ".";
  bool pipeline = false;
  bool rewrite = false;
  bool no_shrink = false;
  std::vector<std::string> replay;
  std::string minimize;
  bool verbose = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: cqp_fuzz [--seed N] [--count N] [--duration SECONDS]\n"
               "                [--class 1..6] [--k-min N] [--k-max N]\n"
               "                [--out DIR] [--no-shrink] [--verbose]\n"
               "                [--pipeline] [--batch-eval] [--rewrite]\n"
               "                [--replay FILE...] [--minimize FILE]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag.c_str());
        return nullptr;
      }
      return argv[++i];
    };
    if (flag == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      args->seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--count") {
      const char* v = next();
      if (v == nullptr) return false;
      args->count = std::strtoull(v, nullptr, 10);
    } else if (flag == "--duration") {
      const char* v = next();
      if (v == nullptr) return false;
      args->duration_s = std::strtod(v, nullptr);
    } else if (flag == "--class") {
      const char* v = next();
      if (v == nullptr) return false;
      args->generator.problem_class = std::atoi(v);
      if (args->generator.problem_class < 1 ||
          args->generator.problem_class > 6) {
        std::fprintf(stderr, "--class must be 1..6\n");
        return false;
      }
    } else if (flag == "--k-min") {
      const char* v = next();
      if (v == nullptr) return false;
      args->generator.k_min = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--k-max") {
      const char* v = next();
      if (v == nullptr) return false;
      args->generator.k_max = static_cast<size_t>(std::atoi(v));
    } else if (flag == "--out") {
      const char* v = next();
      if (v == nullptr) return false;
      args->out_dir = v;
    } else if (flag == "--pipeline") {
      args->pipeline = true;
    } else if (flag == "--rewrite") {
      args->rewrite = true;
    } else if (flag == "--batch-eval") {
      // Focused campaign for the SoA/SIMD batch evaluation core: only the
      // kernel- and solve-level batch-vs-scalar parity checks (plus the
      // feasibility recheck, which is what makes a wrong answer visible
      // without the full oracle). Much faster per instance, so the same
      // budget covers far more of the preference-space shapes the batch
      // tail enumeration has to get right.
      args->check = CheckOptions();
      args->check.check_oracle = false;
      args->check.check_invariants = false;
      args->check.check_budget = false;
      args->check.check_determinism = false;
      args->check.check_prepared = false;
      args->check.check_feasibility = true;
      args->check.check_batch_parity = true;
    } else if (flag == "--no-shrink") {
      args->no_shrink = true;
    } else if (flag == "--verbose") {
      args->verbose = true;
    } else if (flag == "--replay") {
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        args->replay.push_back(argv[++i]);
      }
      if (args->replay.empty()) {
        std::fprintf(stderr, "--replay needs at least one file\n");
        return false;
      }
    } else if (flag == "--minimize") {
      const char* v = next();
      if (v == nullptr) return false;
      args->minimize = v;
    } else if (flag == "--help" || flag == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      Usage();
      return false;
    }
  }
  if (args->generator.k_min < 1 ||
      args->generator.k_max < args->generator.k_min) {
    std::fprintf(stderr, "bad k range\n");
    return false;
  }
  return true;
}

/// Shrinks (unless disabled), writes the reproducer file and prints the
/// violation report.
void HandleFailure(const Args& args, const CqpInstance& instance,
                   const std::string& report_text, int failure_index) {
  std::fprintf(stderr, "FAIL %s seed=%llu\n%s", instance.Summary().c_str(),
               static_cast<unsigned long long>(instance.seed),
               report_text.c_str());
  CqpInstance to_write = instance;
  if (!args.no_shrink) {
    cqp::testing::ShrinkResult shrunk =
        cqp::testing::ShrinkInstance(instance, args.check);
    std::fprintf(stderr, "shrunk K=%zu -> K=%zu (%d probes)\n", instance.K(),
                 shrunk.instance.K(), shrunk.probes);
    to_write = shrunk.instance;
  }
  mkdir(args.out_dir.c_str(), 0755);  // fine if it already exists
  std::string path = args.out_dir + "/cqp_repro_" +
                     std::to_string(instance.seed) + "_" +
                     std::to_string(failure_index) + ".cqprepro";
  cqp::Status written = to_write.WriteFile(path);
  if (written.ok()) {
    std::fprintf(stderr, "reproducer written to %s\n", path.c_str());
  } else {
    std::fprintf(stderr, "could not write %s: %s\n", path.c_str(),
                 std::string(written.message()).c_str());
  }
}

int RunReplay(const Args& args) {
  int failures = 0;
  for (const std::string& path : args.replay) {
    auto instance = CqpInstance::ReadFile(path);
    if (!instance.ok()) {
      std::fprintf(stderr, "%s\n",
                   std::string(instance.status().message()).c_str());
      ++failures;
      continue;
    }
    IsolatedOutcome outcome = CheckIsolated(*instance, args.check);
    if (!outcome.failed) {
      std::printf("PASS %s (%s)\n", path.c_str(),
                  instance->Summary().c_str());
    } else {
      std::fprintf(stderr, "FAIL %s\n%s", path.c_str(),
                   outcome.report_text.c_str());
      ++failures;
    }
  }
  return failures;
}

int RunMinimize(const Args& args) {
  auto instance = CqpInstance::ReadFile(args.minimize);
  if (!instance.ok()) {
    std::fprintf(stderr, "%s\n",
                 std::string(instance.status().message()).c_str());
    return 1;
  }
  cqp::testing::ShrinkResult shrunk =
      cqp::testing::ShrinkInstance(*instance, args.check);
  if (shrunk.report.ok()) {
    std::printf("%s passes all checks; nothing to minimize\n",
                args.minimize.c_str());
    return 0;
  }
  std::string path = args.minimize + ".min";
  cqp::Status written = shrunk.instance.WriteFile(path);
  if (!written.ok()) {
    std::fprintf(stderr, "write %s: %s\n", path.c_str(),
                 std::string(written.message()).c_str());
    return 1;
  }
  std::printf("K=%zu -> K=%zu (%d accepted steps, %d probes) -> %s\n",
              instance->K(), shrunk.instance.K(), shrunk.steps, shrunk.probes,
              path.c_str());
  std::printf("%s", shrunk.report.ToString().c_str());
  return 0;
}

/// The --pipeline sweep: RunPipelineCheck over consecutive seeds from
/// --seed, as many as it takes for about --count requests.
int RunPipeline(const Args& args) {
  cqp::testing::PipelineCheckConfig config;
  const uint64_t per_seed =
      static_cast<uint64_t>(config.n_profiles * config.n_queries);
  const uint64_t seeds =
      std::max<uint64_t>(1, (args.count + per_seed - 1) / per_seed);
  size_t requests = 0;
  int failures = 0;
  for (uint64_t s = 0; s < seeds; ++s) {
    config.seed = args.seed + s;
    cqp::testing::PipelineCheckResult result =
        cqp::testing::RunPipelineCheck(config);
    requests += result.requests;
    if (!result.report.ok()) {
      std::fprintf(stderr, "FAIL seed=%llu\n%s",
                   static_cast<unsigned long long>(config.seed),
                   result.report.ToString().c_str());
      ++failures;
    }
    if (args.verbose || (s + 1) % 100 == 0) {
      std::printf("... %llu/%llu seeds, %zu requests, %d failing\n",
                  static_cast<unsigned long long>(s + 1),
                  static_cast<unsigned long long>(seeds), requests, failures);
      std::fflush(stdout);
    }
  }
  std::printf("pipeline parity: seeds %llu..%llu, %zu requests compared, "
              "%d failing seeds\n",
              static_cast<unsigned long long>(args.seed),
              static_cast<unsigned long long>(args.seed + seeds - 1),
              requests, failures);
  return failures;
}

/// The --rewrite campaign: RunRewriteCheck over `count` consecutive seeds
/// (each seed is a fresh database + mined constraints + workload), so one
/// invocation covers many constraint shapes. Instance counts scale the
/// per-seed workload only implicitly — the sweep is seed-parallelizable by
/// splitting the seed range across invocations.
int RunRewrite(const Args& args) {
  // Each seed personalizes n_profiles * n_queries requests; size the sweep
  // so --count roughly equals the number of requests checked.
  cqp::testing::RewriteCheckConfig config;
  uint64_t per_seed =
      static_cast<uint64_t>(config.n_profiles * config.n_queries);
  uint64_t seeds = (args.count + per_seed - 1) / per_seed;
  if (seeds == 0) seeds = 1;
  size_t requests = 0;
  uint64_t conjuncts_dropped = 0, branches_eliminated = 0, prefs_pruned = 0,
           vacuity_probes = 0;
  int failures = 0;
  for (uint64_t s = 0; s < seeds; ++s) {
    config.seed = args.seed + s;
    cqp::testing::RewriteCheckResult result =
        cqp::testing::RunRewriteCheck(config);
    requests += result.requests;
    conjuncts_dropped += result.conjuncts_dropped;
    branches_eliminated += result.branches_eliminated;
    prefs_pruned += result.prefs_pruned;
    vacuity_probes += result.vacuity_probes;
    if (!result.report.ok()) {
      std::fprintf(stderr, "FAIL seed=%llu\n%s",
                   static_cast<unsigned long long>(config.seed),
                   result.report.ToString().c_str());
      ++failures;
      if (failures >= 20) {
        std::fprintf(stderr, "too many failures; stopping early\n");
        break;
      }
    }
    if (args.verbose || (s + 1) % 50 == 0) {
      std::printf("... %llu/%llu seeds, %zu requests, %d failing\n",
                  static_cast<unsigned long long>(s + 1),
                  static_cast<unsigned long long>(seeds), requests, failures);
      std::fflush(stdout);
    }
  }
  std::printf(
      "rewrite sweep: %llu seeds, %zu requests, %llu conjuncts dropped, "
      "%llu branches eliminated, %llu candidates pruned "
      "(%llu vacuity probes), %d failing\n",
      static_cast<unsigned long long>(seeds), requests,
      static_cast<unsigned long long>(conjuncts_dropped),
      static_cast<unsigned long long>(branches_eliminated),
      static_cast<unsigned long long>(prefs_pruned),
      static_cast<unsigned long long>(vacuity_probes), failures);
  return failures;
}

int RunFuzz(const Args& args) {
  auto start = std::chrono::steady_clock::now();
  auto deadline = start + std::chrono::duration_cast<
                              std::chrono::steady_clock::duration>(
                              std::chrono::duration<double>(args.duration_s));
  int failures = 0;
  uint64_t ran = 0;
  uint64_t solves = 0;
  for (uint64_t i = 0;; ++i) {
    if (args.duration_s > 0.0) {
      if (std::chrono::steady_clock::now() >= deadline) break;
    } else if (i >= args.count) {
      break;
    }
    uint64_t instance_seed = args.seed + i;
    cqp::Rng rng(instance_seed);
    CqpInstance instance =
        cqp::testing::GenerateInstance(rng, args.generator);
    instance.seed = instance_seed;
    IsolatedOutcome outcome = CheckIsolated(instance, args.check);
    ++ran;
    solves += static_cast<uint64_t>(outcome.solves);
    if (args.verbose) {
      std::printf("#%llu %s: %s\n", static_cast<unsigned long long>(i),
                  instance.Summary().c_str(),
                  outcome.failed ? "FAIL" : "ok");
    }
    if (outcome.failed) {
      HandleFailure(args, instance, outcome.report_text, failures);
      ++failures;
      if (failures >= 20) {
        std::fprintf(stderr, "too many failures; stopping early\n");
        break;
      }
    }
    if (ran % 1000 == 0) {
      double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      std::printf("... %llu instances, %llu solves, %d failures, %.1fs\n",
                  static_cast<unsigned long long>(ran),
                  static_cast<unsigned long long>(solves), failures, elapsed);
      std::fflush(stdout);
    }
  }
  double elapsed = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
  std::printf("%llu instances (%llu solves) in %.1fs, %d failing\n",
              static_cast<unsigned long long>(ran),
              static_cast<unsigned long long>(solves), elapsed, failures);
  return failures;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) return 125;
  int failures = 0;
  if (!args.replay.empty()) {
    failures = RunReplay(args);
  } else if (!args.minimize.empty()) {
    return RunMinimize(args);
  } else if (args.pipeline) {
    failures = RunPipeline(args);
  } else if (args.rewrite) {
    failures = RunRewrite(args);
  } else {
    failures = RunFuzz(args);
  }
  return failures > 125 ? 125 : failures;
}
