// Tests for the core experiment layer: metrics aggregation, the
// steady-state detector, the cost model, and end-to-end experiment runs at
// tiny scale for both engines and all device profiles.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cost_model.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "core/report.h"
#include "core/steady_state.h"
#include "util/random.h"

namespace ptsb::core {
namespace {

TEST(MetricsTest, SteadyStateAveragesTail) {
  MetricsSeries s;
  for (int i = 0; i < 12; i++) {
    WindowSample w;
    w.t_minutes = i * 10;
    w.kv_kops = i < 8 ? 10.0 : 2.0;  // drops at the end
    s.windows.push_back(w);
  }
  const WindowSample steady = s.SteadyState(4);
  EXPECT_DOUBLE_EQ(steady.kv_kops, 2.0);
  EXPECT_DOUBLE_EQ(steady.t_minutes, 110);
}

TEST(MetricsTest, CvDistinguishesStableFromSwinging) {
  MetricsSeries stable, swingy;
  Rng rng(1);
  for (int i = 0; i < 40; i++) {
    WindowSample w;
    w.kv_kops = 5.0 + 0.05 * rng.NextDouble();
    stable.windows.push_back(w);
    w.kv_kops = (i % 2 == 0) ? 9.0 : 1.0;
    swingy.windows.push_back(w);
  }
  EXPECT_LT(stable.ThroughputCv(), 0.05);
  EXPECT_GT(swingy.ThroughputCv(), 0.5);
}

TEST(MetricsTest, CsvAndTableContainData) {
  MetricsSeries s;
  WindowSample w;
  w.t_minutes = 10;
  w.kv_kops = 3.25;
  s.windows.push_back(w);
  EXPECT_NE(s.ToCsv().find("3.25"), std::string::npos);
  EXPECT_NE(s.ToTable("t").find("3.25"), std::string::npos);
}

TEST(SteadyStateTest, MetricsPathRequiresAllThreeStable) {
  SteadyStateDetector d(4, 0.1, 100.0);  // effectively disable volume rule
  // Stable throughput + WA-D, but WA-A still climbing: not steady.
  double wa_a = 5;
  for (int i = 0; i < 10; i++) {
    d.AddWindow(3.0, wa_a, 1.5, 0, 1 << 30);
    wa_a *= 1.2;
  }
  EXPECT_FALSE(d.IsSteady());
  // Now everything stabilizes.
  for (int i = 0; i < 4; i++) d.AddWindow(3.0, wa_a, 1.5, 0, 1 << 30);
  EXPECT_TRUE(d.IsSteady());
  EXPECT_TRUE(d.SteadyByMetrics());
}

TEST(SteadyStateTest, VolumeRuleOfThumb) {
  SteadyStateDetector d(4, 0.001, 3.0);  // strict metrics, 3x capacity
  uint64_t host = 0;
  for (int i = 0; i < 8; i++) {
    host += 1 << 29;  // 512 MiB per window on a 1 GiB device
    d.AddWindow(i % 2 == 0 ? 5 : 1, 10, 2, host, 1 << 30);
  }
  EXPECT_TRUE(d.IsSteady());
  EXPECT_TRUE(d.SteadyByVolume());
  EXPECT_FALSE(d.SteadyByMetrics());
}

TEST(CostModelTest, CapacityVsThroughputBound) {
  SystemProfile sys{"s", {{200ull * 1000 * 1000 * 1000, 2.0}}};
  // 1 TB at 1 Kops: capacity bound -> ceil(1e12/200e9) = 5 drives.
  EXPECT_EQ(DrivesNeeded(sys, 1.0, 1.0), 5u);
  // 0.2 TB at 10 Kops: throughput bound -> ceil(10/2) = 5 drives.
  EXPECT_EQ(DrivesNeeded(sys, 0.2, 10.0), 5u);
  // Tiny ask: still at least one drive.
  EXPECT_EQ(DrivesNeeded(sys, 0.01, 0.1), 1u);
}

TEST(CostModelTest, PicksBestOperatingPoint) {
  SystemProfile sys{"s",
                    {{100ull * 1000 * 1000 * 1000, 3.0},
                     {300ull * 1000 * 1000 * 1000, 1.0}}};
  // Throughput-hungry: the dense point would need 12 drives by capacity...
  // 1.2 TB at 12 Kops: point1 -> max(12, 4) = 12; point2 -> max(4, 12) = 12.
  EXPECT_EQ(DrivesNeeded(sys, 1.2, 12.0), 12u);
  // Capacity-hungry: 3 TB at 2 Kops: point1 -> max(30,1)=30; point2 ->
  // max(10,2)=10.
  EXPECT_EQ(DrivesNeeded(sys, 3.0, 2.0), 10u);
}

TEST(CostModelTest, EmptyProfileIsInfeasible) {
  SystemProfile sys{"empty", {}};
  EXPECT_EQ(DrivesNeeded(sys, 1.0, 1.0), 0u);
}

TEST(CostModelTest, HeatmapWinnersFlip) {
  SystemProfile fast_small{"fast", {{100ull * 1000 * 1000 * 1000, 10.0}}};
  SystemProfile slow_big{"big", {{400ull * 1000 * 1000 * 1000, 1.0}}};
  const auto map =
      ComputeHeatmap(fast_small, slow_big, {0.4, 4.0}, {2.0, 40.0});
  // Small dataset + high throughput: fast_small (A) wins.
  EXPECT_EQ(map.At(1, 0).winner, -1);
  // Large dataset + low throughput: slow_big (B) wins.
  EXPECT_EQ(map.At(0, 1).winner, 1);
  EXPECT_NE(map.Render().find("fast"), std::string::npos);
}

TEST(ReportTest, RenderContainsRowsAndRatio) {
  Report r("title");
  r.AddComparison("metric", 2.0, 1.0, "u");
  r.AddNote("a note");
  const std::string s = r.Render();
  EXPECT_NE(s.find("title"), std::string::npos);
  EXPECT_NE(s.find("metric"), std::string::npos);
  EXPECT_NE(s.find("0.50x"), std::string::npos);
  EXPECT_NE(s.find("a note"), std::string::npos);
}

// ---- End-to-end experiment runs at tiny scale.

ExperimentConfig TinyConfig(const std::string& engine) {
  ExperimentConfig c;
  c.scale = 2000;  // 200 MB device, ~100 MB dataset
  c.engine = engine;
  c.duration_minutes = 40;
  c.window_minutes = 10;
  c.value_bytes = 1000;
  c.name = "core-test";
  c.collect_lba_trace = true;
  return c;
}

class ExperimentEngineTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ExperimentEngineTest, ProducesSaneSeries) {
  auto result = RunExperiment(TinyConfig(GetParam()));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GE(result->series.windows.size(), 3u);
  for (const auto& w : result->series.windows) {
    EXPECT_GT(w.kv_kops, 0);
    EXPECT_GE(w.wa_a_cum, 1.0);  // engines always write at least the data
    EXPECT_GE(w.wa_d_cum, 0.99);
    EXPECT_GT(w.disk_utilization, 0.2);  // ~50% dataset plus overheads
    EXPECT_LT(w.disk_utilization, 1.01);
    EXPECT_GE(w.space_amp, 0.9);
  }
  EXPECT_GT(result->update_ops, 0u);
  EXPECT_GT(result->load_minutes, 0);
  EXPECT_FALSE(result->ran_out_of_space);
  // Latency percentiles: ordered and nonzero (every op costs some time).
  for (const auto& w : result->series.windows) {
    EXPECT_GT(w.op_p50_us, 0);
    EXPECT_GE(w.op_p99_us, w.op_p50_us);
    EXPECT_GE(w.op_max_us, w.op_p99_us * 0.99);
  }
  // Fig. 4 machinery.
  EXPECT_GE(result->lba_fraction_untouched, 0.0);
  EXPECT_LE(result->lba_fraction_untouched, 1.0);
  ASSERT_FALSE(result->lba_cdf.empty());
  EXPECT_NEAR(result->lba_cdf.back().write_fraction, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Engines, ExperimentEngineTest,
                         ::testing::Values(std::string("lsm"),
                                           std::string("btree")));

TEST(ExperimentTest, LsmSweepsLbaSpaceWhileBtreeStaysPut) {
  // The Fig. 4 mechanism at unit-test scale: the LSM's file churn keeps
  // claiming previously-untouched LBAs as the run gets longer, while the
  // B+Tree's in-place file keeps its footprint essentially constant.
  auto short_cfg = TinyConfig("lsm");
  auto long_cfg = short_cfg;
  long_cfg.duration_minutes = 160;
  auto lsm_short = RunExperiment(short_cfg);
  auto lsm_long = RunExperiment(long_cfg);
  ASSERT_TRUE(lsm_short.ok() && lsm_long.ok());
  EXPECT_GT(lsm_short->lba_fraction_untouched,
            lsm_long->lba_fraction_untouched + 0.03);

  auto bt_short_cfg = TinyConfig("btree");
  auto bt_long_cfg = bt_short_cfg;
  bt_long_cfg.duration_minutes = 160;
  auto bt_short = RunExperiment(bt_short_cfg);
  auto bt_long = RunExperiment(bt_long_cfg);
  ASSERT_TRUE(bt_short.ok() && bt_long.ok());
  EXPECT_NEAR(bt_short->lba_fraction_untouched,
              bt_long->lba_fraction_untouched, 0.03);
}

TEST(ExperimentTest, PreconditioningRaisesBtreeWaD) {
  auto trimmed = TinyConfig("btree");
  auto prec = trimmed;
  prec.initial_state = ssd::InitialState::kPreconditioned;
  prec.duration_minutes = 60;
  trimmed.duration_minutes = 60;
  auto rt = RunExperiment(trimmed);
  auto rp = RunExperiment(prec);
  ASSERT_TRUE(rt.ok() && rp.ok());
  // Pitfall 3: the preconditioned device pays GC from the start.
  EXPECT_GT(rp->steady.wa_d_cum, rt->steady.wa_d_cum);
}

TEST(ExperimentTest, PartitionReservesSoftwareOp) {
  auto c = TinyConfig("lsm");
  c.partition_frac = 0.7;
  c.dataset_frac = 0.4;
  auto r = RunExperiment(c);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Utilization is measured against the whole device; a 0.4-of-device
  // dataset on a 0.7 partition must stay under 0.7.
  EXPECT_LT(r->steady.disk_utilization, 0.7);
}

TEST(ExperimentTest, OutOfSpaceSurfacesGracefully) {
  auto c = TinyConfig("lsm");
  c.dataset_frac = 0.95;  // cannot fit with LSM space amplification
  auto r = RunExperiment(c);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ran_out_of_space);
}

TEST(ExperimentTest, OutOfSpaceDuringUpdatePhaseIsData) {
  // Regression: a dataset that *loads* (levels above it still empty) but
  // runs out of space later, as compaction fills the level structure —
  // including the final Close() flush — must report ran_out_of_space, not
  // an error. This is the paper's Fig. 6 RocksDB scenario.
  auto c = TinyConfig("lsm");
  c.dataset_frac = 0.90;
  c.duration_minutes = 120;
  auto r = RunExperiment(c);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ran_out_of_space);
  EXPECT_GT(r->peak_disk_utilization, 0.9);
}

TEST(ExperimentTest, OutOfSpaceAfterTheLoadsLastPutIsData) {
  // The paper's unscaled 64 MiB memtable holds the whole dataset: every
  // load Put fits, and the flush after the last one runs the 100 MB
  // device out of space. That too is Fig. 6 data, not an error.
  auto c = TinyConfig("lsm");
  c.scale = 4000;
  c.engine_params["memtable_bytes"] = std::to_string(64ull << 20);
  auto r = RunExperiment(c);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ran_out_of_space);
  EXPECT_EQ(r->update_ops, 0u);
}

TEST(ExperimentTest, DeterministicAcrossRuns) {
  auto c = TinyConfig("lsm");
  c.duration_minutes = 20;
  auto a = RunExperiment(c);
  auto b = RunExperiment(c);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->series.windows.size(), b->series.windows.size());
  EXPECT_EQ(a->update_ops, b->update_ops);
  EXPECT_DOUBLE_EQ(a->steady.kv_kops, b->steady.kv_kops);
  EXPECT_DOUBLE_EQ(a->steady.wa_d_cum, b->steady.wa_d_cum);
}

TEST(ExperimentTest, SmallValuesWorkloadRuns) {
  auto c = TinyConfig("btree");
  c.value_bytes = 128;
  c.duration_minutes = 20;
  auto r = RunExperiment(c);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->steady.kv_kops, 0);
}

TEST(ExperimentTest, MixedWorkloadRuns) {
  auto c = TinyConfig("lsm");
  c.write_fraction = 0.5;
  c.duration_minutes = 20;
  auto r = RunExperiment(c);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_GT(r->update_ops, 0u);
}

TEST(ExperimentTest, Ssd2AndSsd3ProfilesRun) {
  for (const auto profile : {ssd::ProfileKind::kSsd2ConsumerQlc,
                             ssd::ProfileKind::kSsd3Optane}) {
    auto c = TinyConfig("lsm");
    c.profile = profile;
    c.duration_minutes = 20;
    auto r = RunExperiment(c);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_GT(r->steady.kv_kops, 0);
  }
}

// A scale the profile's geometry cannot back is a reported error naming
// the profile and the scale, not a CHECK abort in the FTL: SSD2 at scale
// 8000 has fewer physical blocks than its logical blocks plus spares,
// and scale 1e8 leaves SSD1 no pages at all.
TEST(ExperimentTest, UnsupportedScaleIsInvalidArgument) {
  auto c = TinyConfig("lsm");
  c.profile = ssd::ProfileKind::kSsd2ConsumerQlc;
  c.scale = 8000;
  auto r = RunExperiment(c);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  EXPECT_NE(r.status().message().find(ssd::ProfileName(c.profile)),
            std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("8000"), std::string::npos)
      << r.status().ToString();

  c.profile = ssd::ProfileKind::kSsd1Enterprise;
  c.scale = 100'000'000;
  r = RunExperiment(c);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
}

// Out-of-range workload values are InvalidArgument before the stack is
// built, not a CHECK abort deep in it (partition_frac 0, value_bytes 0)
// nor a silently accepted run (write_fraction -1, dataset_frac 1.5).
TEST(ExperimentTest, OutOfRangeWorkloadIsInvalidArgument) {
  const std::vector<std::pair<std::string,
                              std::function<void(ExperimentConfig*)>>>
      cases = {
          {"partition_frac", [](auto* c) { c->partition_frac = 0; }},
          {"partition_frac", [](auto* c) { c->partition_frac = 1.5; }},
          {"dataset_frac", [](auto* c) { c->dataset_frac = 0; }},
          {"dataset_frac", [](auto* c) { c->dataset_frac = 1.5; }},
          {"write_fraction", [](auto* c) { c->write_fraction = -1; }},
          {"write_fraction", [](auto* c) { c->write_fraction = 1.01; }},
          {"delete_fraction", [](auto* c) { c->delete_fraction = -0.1; }},
          {"delete_fraction", [](auto* c) { c->delete_fraction = 2; }},
          {"scan_fraction", [](auto* c) { c->scan_fraction = -0.5; }},
          {"scan_fraction", [](auto* c) { c->scan_fraction = 1.5; }},
          {"value_bytes", [](auto* c) { c->value_bytes = 0; }},
          {"value_bytes", [](auto* c) { c->value_bytes = 15; }},
          {"duration_minutes", [](auto* c) { c->duration_minutes = 0; }},
          {"duration_minutes", [](auto* c) { c->duration_minutes = -1; }},
          {"window_minutes", [](auto* c) { c->window_minutes = 0; }},
          {"window_minutes", [](auto* c) { c->window_minutes = -5; }},
          {"zipf_theta",
           [](auto* c) {
             c->distribution = kv::Distribution::kZipfian;
             c->zipf_theta = 1;
           }},
          {"zipf_theta",
           [](auto* c) {
             c->distribution = kv::Distribution::kZipfian;
             c->zipf_theta = -0.1;
           }},
      };
  for (const auto& [field, set] : cases) {
    auto c = TinyConfig("lsm");
    set(&c);
    auto r = RunExperiment(c);
    ASSERT_FALSE(r.ok()) << field;
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
    EXPECT_NE(r.status().message().find(field), std::string::npos)
        << r.status().ToString();
  }
  // The range ends themselves run: a full partition, all writes, no
  // deletes or scans, and the smallest value size.
  auto c = TinyConfig("lsm");
  c.duration_minutes = 10;
  c.partition_frac = 1;
  c.write_fraction = 1;
  c.delete_fraction = 0;
  c.scan_fraction = 0;
  c.value_bytes = 16;
  c.dataset_frac = 0.01;
  const auto r = RunExperiment(c);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
}

}  // namespace
}  // namespace ptsb::core
