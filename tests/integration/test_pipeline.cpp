// End-to-end pipeline tests: simulator -> tools (EXPERT / CONE) -> algebra
// -> display -> file formats.  These reproduce the paper's two case studies
// in miniature and assert the qualitative outcomes.
#include <gtest/gtest.h>

#include "algebra/operators.hpp"
#include "cone/profiler.hpp"
#include "display/browser.hpp"
#include "expert/analyzer.hpp"
#include "expert/patterns.hpp"
#include "io/cube_format.hpp"
#include "query/query_expr.hpp"
#include "sim/apps/pescan.hpp"
#include "sim/apps/sweep3d.hpp"
#include "sim/engine.hpp"

namespace cube {
namespace {

sim::RunResult run_pescan(bool barriers, int iterations = 5,
                          std::uint64_t seed = 42) {
  sim::SimConfig cfg;
  cfg.monitor.trace = true;
  cfg.noise.relative = 0.01;
  cfg.noise.seed = seed;
  sim::RegionTable regions;
  sim::PescanConfig pc;
  pc.iterations = iterations;
  pc.with_barriers = barriers;
  return sim::Engine(cfg).run(regions,
                              sim::build_pescan(regions, cfg.cluster, pc));
}

TEST(Pipeline, Section51_DifferenceShowsBarrierEliminationAndMigration) {
  const Experiment before = expert::analyze_trace(
      run_pescan(true).trace, {.experiment_name = "before"});
  const Experiment after = expert::analyze_trace(
      run_pescan(false).trace, {.experiment_name = "after"});

  const Experiment diff = difference(before, after);
  EXPECT_EQ(diff.kind(), ExperimentKind::Derived);

  const auto metric = [&](std::string_view name) -> const Metric& {
    return *diff.metadata().find_metric(name);
  };
  // Barrier-related gains are positive (raised relief in Figure 2)...
  EXPECT_GT(diff.sum_metric(metric(expert::kWaitBarrier)), 0.0);
  EXPECT_GT(diff.sum_metric(metric(expert::kBarrierCompletion)), 0.0);
  EXPECT_GT(diff.sum_metric(metric(expert::kBarrier)), 0.0);
  // ...while P2P and Wait-at-NxN increased (sunken relief = migration).
  EXPECT_LT(diff.sum_metric(metric(expert::kWaitNxN)), 0.0);
  EXPECT_LT(diff.sum_metric(metric(expert::kP2p)) +
                diff.sum_metric(metric(expert::kLateSender)),
            0.0);
  // Gross balance is clearly positive.
  EXPECT_GT(diff.sum_metric_tree(metric(expert::kTime)), 0.0);
}

TEST(Pipeline, Section51_DifferenceRendersLikeOriginal) {
  const Experiment before = expert::analyze_trace(
      run_pescan(true, 3).trace, {.experiment_name = "before"});
  const Experiment after = expert::analyze_trace(
      run_pescan(false, 3).trace, {.experiment_name = "after"});
  const Experiment diff = difference(before, after);

  // Closure: the derived experiment drives the same browser.
  Browser browser(diff);
  browser.execute("select metric mpi_wait_barrier");
  browser.execute("mode external " +
                  std::to_string(before.sum_metric_tree(
                      *before.metadata().find_metric(expert::kTime))));
  const std::string view = browser.execute("show");
  EXPECT_NE(view.find("[derived]"), std::string::npos);
  EXPECT_NE(view.find("Wait at Barrier  <== selected"), std::string::npos);
}

TEST(Pipeline, Section52_MergeIntegratesExpertAndConeMetrics) {
  // SWEEP3D: trace analysis + two counter profiles whose event sets cannot
  // be measured together, merged into one experiment.
  sim::SimConfig cfg;
  cfg.monitor.trace = true;
  sim::RegionTable regions;
  sim::Sweep3dConfig sc;
  sc.sweeps = 4;
  const sim::RunResult run = sim::Engine(cfg).run(
      regions, sim::build_sweep3d(regions, cfg.cluster, sc));

  const Experiment expert_exp = expert::analyze_trace(
      run.trace, {.experiment_name = "expert"});

  cone::ConeOptions fp_opts;
  fp_opts.event_set = counters::event_set_fp();
  fp_opts.experiment_name = "cone-fp";
  const Experiment cone_fp = cone::profile_run(run, fp_opts);

  cone::ConeOptions cache_opts;
  cache_opts.event_set = counters::event_set_cache();
  cache_opts.experiment_name = "cone-cache";
  const Experiment cone_cache = cone::profile_run(run, cache_opts);

  const Experiment merged = merge(merge(expert_exp, cone_fp), cone_cache);
  const Metadata& md = merged.metadata();
  // Trace-based and counter-based metrics coexist.
  EXPECT_NE(md.find_metric(expert::kLateSender), nullptr);
  EXPECT_NE(md.find_metric("PAPI_FP_INS"), nullptr);
  EXPECT_NE(md.find_metric("PAPI_L1_DCM"), nullptr);
  EXPECT_NO_THROW(md.validate());

  // Cache misses concentrate at MPI_Recv, which is also the Late Sender
  // hot spot.
  const Metric& dcm = *md.find_metric("PAPI_L1_DCM");
  const Metric& ls = *md.find_metric(expert::kLateSender);
  double recv_misses = 0;
  double recv_ls = 0;
  for (const auto& c : md.cnodes()) {
    if (c->callee().name() == sim::kMpiRecvRegion) {
      for (const auto& t : md.threads()) {
        recv_misses += merged.get(dcm, *c, *t);
        recv_ls += merged.get(ls, *c, *t);
      }
    }
  }
  EXPECT_GT(recv_misses, 0.0);
  EXPECT_GT(recv_ls, 0.0);
}

TEST(Pipeline, MeanBeforeMergeComposite) {
  // "To alleviate the effects of random errors, we can summarize multiple
  // outputs from every single tool by applying the mean operator before we
  // perform the merge operation."
  sim::SimConfig cfg;
  sim::RegionTable regions;
  sim::Sweep3dConfig sc;
  sc.sweeps = 2;
  const sim::RunResult run = sim::Engine(cfg).run(
      regions, sim::build_sweep3d(regions, cfg.cluster, sc));

  cone::ConeOptions opts;
  opts.event_set = counters::event_set_cache();
  opts.experiment_name = "rep";
  std::vector<Experiment> reps;
  for (std::uint64_t seed = 0; seed < 3; ++seed) {
    opts.run_seed = seed;
    reps.push_back(cone::profile_run(run, opts));
  }
  const query::ExperimentEnv env{
      {"a", &reps[0]}, {"b", &reps[1]}, {"c", &reps[2]}};
  const Experiment averaged =
      query::eval_query_with_env("mean(a, b, c)", env);
  opts.jitter_sigma = 0.0;
  const Experiment truth = cone::profile_run(run, opts);

  const Metric& m_avg = *averaged.metadata().find_metric("PAPI_L1_DCA");
  const Metric& m_truth = *truth.metadata().find_metric("PAPI_L1_DCA");
  const Metric& m_one = *reps[0].metadata().find_metric("PAPI_L1_DCA");
  const double err_avg = std::abs(averaged.sum_metric_tree(m_avg) -
                                  truth.sum_metric_tree(m_truth));
  const double err_one = std::abs(reps[0].sum_metric_tree(m_one) -
                                  truth.sum_metric_tree(m_truth));
  // Averaging reduces the measurement error of this series.
  EXPECT_LT(err_avg, err_one);
}

TEST(Pipeline, DerivedExperimentsRoundTripThroughXml) {
  const Experiment before = expert::analyze_trace(
      run_pescan(true, 2).trace, {.experiment_name = "before"});
  const Experiment after = expert::analyze_trace(
      run_pescan(false, 2).trace, {.experiment_name = "after"});
  const Experiment diff = difference(before, after);

  const Experiment back = read_cube_xml(to_cube_xml(diff));
  EXPECT_EQ(back.kind(), ExperimentKind::Derived);
  const Metric& time = *back.metadata().find_metric(expert::kTime);
  const Metric& time0 = *diff.metadata().find_metric(expert::kTime);
  EXPECT_NEAR(back.sum_metric_tree(time), diff.sum_metric_tree(time0),
              1e-9);
}

TEST(Pipeline, RepeatedOperatorApplication) {
  // Unlike Karavanic/Miller's difference (which leaves the experiment
  // space), CUBE operators chain: diff of diffs, mean of diffs, ...
  const Experiment e1 = expert::analyze_trace(
      run_pescan(true, 2, 1).trace, {.experiment_name = "r1"});
  const Experiment e2 = expert::analyze_trace(
      run_pescan(true, 2, 2).trace, {.experiment_name = "r2"});
  const Experiment e3 = expert::analyze_trace(
      run_pescan(false, 2, 3).trace, {.experiment_name = "r3"});

  const Experiment d1 = difference(e1, e3);
  const Experiment d2 = difference(e2, e3);
  const Experiment dd = difference(d1, d2);  // second-order difference
  const Experiment m = mean({&d1, &d2});
  EXPECT_NO_THROW(dd.metadata().validate());
  EXPECT_NO_THROW(m.metadata().validate());
  // dd total = (e1 - e3) - (e2 - e3) = e1 - e2.
  const auto total = [](const Experiment& e) {
    return e.sum_metric_tree(*e.metadata().find_metric(expert::kTime));
  };
  EXPECT_NEAR(total(dd), total(e1) - total(e2), 1e-6);
}

TEST(Pipeline, ConeAndExpertTimesAgree) {
  // Both tools observe the same run; their total times must be close
  // (EXPERT reads the dilated trace, CONE the profile of the same run).
  sim::SimConfig cfg;
  cfg.monitor.trace = true;
  sim::RegionTable regions;
  sim::PescanConfig pc;
  pc.iterations = 2;
  const sim::RunResult run = sim::Engine(cfg).run(
      regions, sim::build_pescan(regions, cfg.cluster, pc));
  const Experiment ee = expert::analyze_trace(run.trace);
  const Experiment ce = cone::profile_run(run);
  const double t_expert =
      ee.sum_metric_tree(*ee.metadata().find_metric(expert::kTime));
  const double t_cone =
      ce.sum_metric_tree(*ce.metadata().find_metric(cone::kConeTime));
  EXPECT_NEAR(t_expert, t_cone, 0.02 * t_expert);
}

}  // namespace
}  // namespace cube
