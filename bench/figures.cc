// figures: reproduces the paper's figures (Figs. 2-11 of Didona et al.,
// PAPERS.md) plus one extension, each as one row of a spec table. A row
// names its experiment cells (a base config and the swept axes), its
// paper-vs-measured comparisons and notes; the one runner loop below runs
// the cells through core::RunExperiment, prints the figure's tables and
// report, and writes its CSVs under results/.
//
//   ./build/figures                             # every figure, in order
//   ./build/figures --figure=fig09 --minutes=20
//   ./build/figures --scale=4000 --minutes=20   # all 87 cells, CI size
//
// --scale=N divides the paper's sizes (smaller N = closer to the paper);
// without it each figure runs at its own default scale (see --help).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/experiment.h"
#include "core/report.h"
#include "flags.h"
#include "util/human.h"

namespace ptsb {
namespace {

using core::ExperimentConfig;
using core::ExperimentResult;
using Setup = std::function<void(ExperimentConfig&)>;

// One value of a swept axis: its part of the cell name and its config.
struct Level {
  std::string label;
  Setup apply;
};
using Axis = std::vector<Level>;

template <typename T, typename LabelFn>
Axis Sweep(T ExperimentConfig::*field, const std::vector<T>& values,
           LabelFn label) {
  Axis axis;
  for (const T& v : values) {
    axis.push_back(
        {label(v), [field, v](ExperimentConfig& c) { c.*field = v; }});
  }
  return axis;
}

Axis Engines(const std::vector<std::string>& engines) {
  return Sweep(&ExperimentConfig::engine, engines,
               [](const std::string& e) { return e; });
}

Axis States() {
  return Sweep(&ExperimentConfig::initial_state,
               {ssd::InitialState::kTrimmed,
                ssd::InitialState::kPreconditioned},
               ssd::InitialStateName);
}

Axis DatasetFracs(const std::vector<double>& fracs) {
  return Sweep(&ExperimentConfig::dataset_frac, fracs,
               [](double f) { return std::to_string(f).substr(0, 4); });
}

// No OP vs 100 GB of a 400 GB drive left unpartitioned as extra OP.
Axis Partitions() {
  return Sweep(&ExperimentConfig::partition_frac, {1.0, 0.75},
               [](double p) { return p < 1 ? "extraOP" : "noOP"; });
}

Axis Profiles() {
  return Sweep(&ExperimentConfig::profile,
               {ssd::ProfileKind::kSsd1Enterprise,
                ssd::ProfileKind::kSsd2ConsumerQlc,
                ssd::ProfileKind::kSsd3Optane},
               ssd::ProfileName);
}

// A value size with the write share of the update mix.
Level Mix(const char* label, size_t value_bytes, double write_fraction) {
  return {label, [=](ExperimentConfig& c) {
            c.value_bytes = value_bytes;  // NumKeys scales automatically
            c.write_fraction = write_fraction;
          }};
}

Level Skew(const char* label, kv::Distribution dist, double theta) {
  return {label, [=](ExperimentConfig& c) {
            c.distribution = dist;
            c.zipf_theta = theta;
          }};
}

// A figure's results in cell order: the last axis varies fastest.
struct Results {
  std::vector<ExperimentResult> cells;
  std::vector<size_t> dims;  // levels per axis

  // The cell at `index`, one level per axis.
  const ExperimentResult& at(const std::vector<size_t>& index) const {
    size_t flat = 0;
    for (size_t a = 0; a < dims.size(); a++) flat = flat * dims[a] + index[a];
    return cells[flat];
  }
};

using CellMetric = double (*)(const ExperimentResult&);
double Kops(const ExperimentResult& r) { return r.steady.kv_kops; }
double WaA(const ExperimentResult& r) { return r.steady.wa_a_cum; }
double WaD(const ExperimentResult& r) { return r.steady.wa_d_cum; }
double E2eWa(const ExperimentResult& r) { return r.EndToEndWa(); }
double Cv(const ExperimentResult& r) { return r.throughput_cv; }
double Oos(const ExperimentResult& r) { return r.ran_out_of_space; }
double Untouched(const ExperimentResult& r) {
  return r.lba_fraction_untouched;
}
// The first window; a run shorter than one window has none (all zeros).
const core::WindowSample& First(const ExperimentResult& r) {
  static const core::WindowSample kNone;
  return r.series.windows.empty() ? kNone : r.series.windows.front();
}
double FirstKops(const ExperimentResult& r) { return First(r).kv_kops; }
double FirstWaD(const ExperimentResult& r) { return First(r).wa_d_cum; }
double FirstDevMbps(const ExperimentResult& r) {
  return First(r).dev_write_mbps;
}
double Burst(const ExperimentResult& r) { return FirstKops(r) / Kops(r); }
double SpaceAmp(const ExperimentResult& r) {
  return std::max(r.peak_space_amp, r.final_space_amp);
}
// Grid cells print "OOS" (NaN) when the experiment ran out of space.
constexpr double kOos = std::numeric_limits<double>::quiet_NaN();
double UtilPctOrOos(const ExperimentResult& r) {
  return r.ran_out_of_space ? kOos : r.peak_disk_utilization * 100;
}
double SpaceAmpOrOos(const ExperimentResult& r) {
  return r.ran_out_of_space ? kOos : SpaceAmp(r);
}

using Metric = std::function<double(const Results&)>;

// `metric` of the cell at `index`.
Metric Of(CellMetric metric, std::vector<size_t> index) {
  return [=](const Results& r) { return metric(r.at(index)); };
}

// `metric` of cell `a` over the same metric of cell `b`.
Metric Ratio(CellMetric metric, std::vector<size_t> a,
             std::vector<size_t> b) {
  return [=](const Results& r) { return metric(r.at(a)) / metric(r.at(b)); };
}

// One "paper reported X, we measured Y" row. `reference`, when set,
// replaces the paper value with a measured baseline (extensions).
struct Comparison {
  std::string label;
  double paper = 0;
  Metric measured;
  std::string unit = "";
  Metric reference = nullptr;
};

// A hand-laid table of the figure's results, in cell order: each row
// covers the next k = cols.size() / metrics.size() cells, and its
// columns show every metric in turn for those k cells.
struct Grid {
  std::string title;
  std::string corner;  // header of the row-label column
  std::vector<std::string> rows;
  std::vector<std::string> cols;
  int precision = 2;
  std::vector<CellMetric> metrics;

  void operator()(const Results& r) const {
    std::printf("\n%s\n  %-20s", title.c_str(), corner.c_str());
    for (const std::string& col : cols) std::printf(" %8s", col.c_str());
    std::printf("\n");
    const size_t k = cols.size() / metrics.size();
    for (size_t row = 0; row < rows.size(); row++) {
      std::printf("  %-20s", rows[row].c_str());
      for (size_t col = 0; col < cols.size(); col++) {
        const double v = metrics[col / k](r.cells[row * k + col % k]);
        const std::string text =
            std::isnan(v) ? "OOS" : StrPrintf("%.*f", precision, v);
        std::printf(" %8s", text.c_str());
      }
      std::printf("\n");
    }
  }
};

struct Figure {
  std::string id;  // --figure=ID; cell names start with it ('_' -> '-')
  std::string title;
  uint64_t default_scale = 400;
  Setup base = nullptr;  // applied to a default config before the axes
  std::vector<Axis> axes;  // loop order, outermost first
  // Axes whose labels form the cell name, in name order (default: all).
  std::vector<size_t> name_order = {};
  bool print_series = false;  // each cell's window table, as it finishes
  bool series_csv = false;    // each cell's windows as results/<name>.csv
  // Output printed once every cell has run, before the report.
  std::vector<std::function<void(const Results&)>> sections = {};
  std::string report_title;
  std::vector<Comparison> comparisons = {};
  std::vector<std::string> notes = {};
  // A note built from the results; an empty string adds none.
  std::function<std::string(const Results&)> measured_note = nullptr;
  bool summary_csv = true;  // results/<id>_summary.csv
};

// ---- Output that exists for one figure only.

// Each engine's series, and where its application-level writes went (the
// WA-A story: compaction vs page writeback vs segment GC).
void PrintFig02Series(const Results& r) {
  const char* titles[] = {"Fig2(a,c) RocksDB-like over time",
                          "Fig2(b,d) WiredTiger-like over time",
                          "Fig2(+) append-only log over time"};
  for (size_t e = 0; e < r.cells.size(); e++) {
    std::printf("%s\n", r.cells[e].series.ToTable(titles[e]).c_str());
  }
  std::printf("engine write attribution:\n");
  for (const ExperimentResult& cell : r.cells) {
    const kv::KvStoreStats& s = cell.engine_stats;
    std::printf(
        "  %-10s user=%-9s log=%-9s flush=%-9s compact w/r=%s/%s  "
        "page=%-9s ckpt=%-9s gc w/r=%s/%s\n",
        cell.config.engine.c_str(), HumanBytes(s.user_bytes_written).c_str(),
        HumanBytes(s.wal_bytes_written).c_str(),
        HumanBytes(s.flush_bytes_written).c_str(),
        HumanBytes(s.compaction_bytes_written).c_str(),
        HumanBytes(s.compaction_bytes_read).c_str(),
        HumanBytes(s.page_write_bytes).c_str(),
        HumanBytes(s.checkpoint_bytes_written).c_str(),
        HumanBytes(s.gc_bytes_written).c_str(),
        HumanBytes(s.gc_bytes_read).c_str());
    core::WriteResultsFile("fig02_" + cell.config.engine + "_series.csv",
                           cell.series.ToCsv());
  }
  std::printf("\n");
}

void PrintLbaCdf(const Results& r) {
  std::printf(
      "\nLBA fraction (sorted by writes)  |  cumulative write fraction\n"
      "   x      rocksdb-like   wiredtiger-like\n");
  std::string csv = "lba_fraction,lsm_write_fraction,btree_write_fraction\n";
  const auto& lsm = r.cells[0].lba_cdf;
  const auto& bt = r.cells[1].lba_cdf;
  for (size_t i = 0; i < lsm.size(); i++) {
    if (i % 5 == 0) {
      std::printf("  %4.2f     %8.4f       %8.4f\n", lsm[i].lba_fraction,
                  lsm[i].write_fraction, bt[i].write_fraction);
    }
    csv += StrPrintf("%.3f,%.5f,%.5f\n", lsm[i].lba_fraction,
                     lsm[i].write_fraction, bt[i].write_fraction);
  }
  core::WriteResultsFile("fig04_cdf.csv", csv);
}

// The operating points of cells [first, first + count) that did not run
// out of space, at paper-scale dataset bytes.
core::SystemProfile OperatingPoints(std::string name, const Results& r,
                                    size_t first, size_t count) {
  core::SystemProfile profile{std::move(name), {}};
  for (size_t i = first; i < first + count; i++) {
    const ExperimentResult& cell = r.cells[i];
    if (cell.ran_out_of_space) continue;
    profile.points.push_back(
        {static_cast<uint64_t>(cell.config.dataset_frac *
                               static_cast<double>(ssd::kPaperDeviceBytes)),
         Kops(cell)});
  }
  return profile;
}

void PrintHeatmap(const char* prefix, const core::SystemProfile& a,
                  const core::SystemProfile& b) {
  const auto heatmap = core::ComputeHeatmap(a, b, {1, 2, 3, 4, 5},  // TB
                                            {5, 10, 15, 20, 25});   // Kops/s
  std::printf("\n%s%s\n", prefix, heatmap.Render().c_str());
}

// The paper's two systems only; the log engine's points are in the grids.
void PrintFig06Heatmap(const Results& r) {
  PrintHeatmap("Fig6(c) ", OperatingPoints("rocksdb-like", r, 0, 6),
               OperatingPoints("wiredtiger-like", r, 6, 6));
}

void PrintFig08Heatmap(const Results& r) {
  const core::SystemProfile no_op = OperatingPoints("rocksdb noOP", r, 0, 3);
  const core::SystemProfile op = OperatingPoints("rocksdb extraOP", r, 3, 3);
  std::printf("\nmeasured operating points (per paper-scale drive):\n");
  for (const auto* prof : {&no_op, &op}) {
    for (const auto& pt : prof->points) {
      std::printf("  %-16s dataset=%5.0f GB  throughput=%5.2f Kops/s\n",
                  prof->name.c_str(),
                  static_cast<double>(pt.dataset_bytes_per_instance) / 1e9,
                  pt.kops_per_instance);
    }
  }
  PrintHeatmap("", no_op, op);
}

// Throughput with extra OP over without, each at its largest dataset that
// fit (0 when either configuration ran out of space everywhere).
double Fig08Speedup(const Results& r) {
  const auto no_op = OperatingPoints("", r, 0, 3).points;
  const auto op = OperatingPoints("", r, 3, 3).points;
  if (no_op.empty() || op.empty()) return 0;
  return op.back().kops_per_instance / no_op.back().kops_per_instance;
}

// Compact sparkline-style rendering of each cell's 1-minute series.
void PrintSparklines(const Results& r) {
  std::printf("\n1-minute throughput profile (relative to own peak):\n");
  for (const ExperimentResult& cell : r.cells) {
    double peak = 1e-9;
    for (const auto& w : cell.series.windows) peak = std::max(peak, w.kv_kops);
    std::string line;
    const char* levels[] = {"_", ".", ":", "-", "=", "#"};
    for (const auto& w : cell.series.windows) {
      line += levels[std::min(5, static_cast<int>(w.kv_kops / peak * 5.99))];
    }
    std::printf("  %-11s %-5s |%s|\n",
                cell.config.engine == "lsm" ? "rocksdb" : "wiredtiger",
                ssd::ProfileName(cell.config.profile).c_str(), line.c_str());
  }
}

// ---- The spec table.

std::vector<Figure> Figures() {
  const std::vector<std::string> fig05_rows = {
      "rocksdb trim", "wiredtiger trim", "rocksdb prec", "wiredtiger prec"};
  const std::vector<std::string> fig05_cols = {"0.25", "0.37", "0.50",
                                               "0.62"};
  const std::vector<std::string> fig06_rows = {"rocksdb", "wiredtiger",
                                               "alog"};
  const std::vector<std::string> fig06_cols = {"0.25", "0.37", "0.50",
                                               "0.62", "0.75", "0.88"};
  const std::vector<std::string> ssd_cols = {"SSD1", "SSD2", "SSD3"};
  const auto sweep = [](double minutes) {
    return [minutes](ExperimentConfig& c) {
      c.duration_minutes = minutes;
      c.collect_lba_trace = false;
    };
  };
  // A 10x smaller dataset (20 GB at paper scale) on trimmed drives
  // isolates device character from GC effects.
  const auto ssd_types = [](ExperimentConfig& c) {
    c.dataset_frac = 0.05;
    c.duration_minutes = 90;
    c.collect_lba_trace = false;
  };
  return {
      // Fig. 2 (Pitfall 1: running short tests) and the Section 4.2
      // end-to-end write amplification: trimmed SSD1, dataset at 50% of
      // the device, uniform overwrites for 210 minutes. Early windows
      // overstate RocksDB's sustainable throughput ~3.6x because WA-A
      // grows as LSM levels fill and WA-D grows as SSD GC starts. The
      // append-only log engine rides along as the sequential-write limit.
      {.id = "fig02",
       .title = "Fig. 2: steady-state vs bursty performance (trimmed SSD1)",
       .default_scale = 100,
       .axes = {Engines({"lsm", "btree", "alog"})},
       .sections = {PrintFig02Series},
       .report_title = "Fig. 2 / Section 4.1-4.2: paper vs measured",
       .comparisons =
           {{"RocksDB initial throughput", 11.0, Of(FirstKops, {0}), "Kops/s"},
            {"RocksDB steady throughput", 3.0, Of(Kops, {0}), "Kops/s"},
            {"RocksDB burst/steady ratio", 3.6, Of(Burst, {0}), "x"},
            {"RocksDB initial device writes", 375.0, Of(FirstDevMbps, {0}),
             "MB/s"},
            {"RocksDB steady WA-A", 12.0, Of(WaA, {0})},
            {"RocksDB steady WA-D", 2.1, Of(WaD, {0})},
            {"RocksDB end-to-end WA", 25.0, Of(E2eWa, {0})},
            {"WiredTiger initial throughput", 1.2, Of(FirstKops, {1}),
             "Kops/s"},
            {"WiredTiger steady throughput", 0.9, Of(Kops, {1}), "Kops/s"},
            {"WiredTiger steady WA-A", 10.0, Of(WaA, {1})},
            {"WiredTiger steady WA-D", 1.5, Of(WaD, {1})},
            {"WiredTiger end-to-end WA", 11.9, Of(E2eWa, {1})},
            {"e2e-WA ratio RocksDB/WiredTiger", 2.1, Ratio(E2eWa, {0}, {1}),
             "x"}},
       .notes = {"absolute numbers depend on device calibration; the "
                 "paper's qualitative claims are the targets"},
       .measured_note =
           [](const Results& r) {
             const ExperimentResult& alog = r.cells[2];
             return StrPrintf(
                 "alog (not in paper): initial %.2f Kops/s, steady %.2f "
                 "Kops/s, WA-A=%.2f WA-D=%.2f e2e-WA=%.2f — pure-log lower "
                 "bound on WA-A",
                 FirstKops(alog), Kops(alog), WaA(alog), WaD(alog),
                 E2eWa(alog));
           }},

      // Fig. 3 (Pitfall 3: overlooking the SSD's internal state): the
      // B+Tree writes only ~55% of the LBA space, so a trimmed drive keeps
      // acting as extra OP and its steady state differs persistently
      // between the two states; the LSM cycles the whole LBA space and
      // its WA-D converges.
      {.id = "fig03",
       .title = "Fig. 3: initial drive state (trimmed vs preconditioned)",
       .default_scale = 100,
       .axes = {Engines({"lsm", "btree"}), States()},
       .print_series = true,
       .series_csv = true,
       .report_title = "Fig. 3: paper vs measured (steady state)",
       .comparisons =
           {{"RocksDB trimmed WA-D", 2.1, Of(WaD, {0, 0})},
            {"RocksDB preconditioned WA-D", 2.3, Of(WaD, {0, 1})},
            {"RocksDB WA-D prec/trim (converges ~1)", 1.1,
             Ratio(WaD, {0, 1}, {0, 0}), "x"},
            {"WiredTiger trimmed WA-D", 1.5, Of(WaD, {1, 0})},
            {"WiredTiger preconditioned WA-D", 2.4, Of(WaD, {1, 1})},
            {"WiredTiger WA-D prec/trim (stays >1)", 1.6,
             Ratio(WaD, {1, 1}, {1, 0}), "x"},
            {"RocksDB trimmed Kops", 3.0, Of(Kops, {0, 0})},
            {"RocksDB preconditioned Kops", 2.6, Of(Kops, {0, 1})},
            {"WiredTiger trimmed Kops", 0.9, Of(Kops, {1, 0})},
            {"WiredTiger preconditioned Kops", 0.75, Of(Kops, {1, 1})}},
       .notes = {"pitfall: running the same test on an uncontrolled drive "
                 "state gives non-reproducible results, especially for the "
                 "B+Tree engine"}},

      // Fig. 4: the CDF of per-LBA write counts (blktrace analysis) that
      // explains Fig. 3. The B+Tree never writes ~45% of the LBA space;
      // the LSM's file churn sweeps the whole device.
      {.id = "fig04",
       .title = "Fig. 4: CDF of LBA write probability",
       .default_scale = 100,
       .axes = {Engines({"lsm", "btree"})},
       .sections = {PrintLbaCdf},
       .report_title = "Fig. 4: paper vs measured",
       .comparisons =
           {{"WiredTiger LBAs never written", 0.45, Of(Untouched, {1}),
             "frac"},
            {"RocksDB LBAs never written", 0.0, Of(Untouched, {0}), "frac"}},
       .notes = {"the untouched LBAs act as implicit over-provisioning on "
                 "a trimmed drive, which is why WiredTiger's WA-D depends "
                 "on the initial state"},
       .summary_csv = false},

      // Fig. 5 (Pitfall 4: testing a single dataset size): throughput
      // falls with dataset size, mostly via WA-D, and the RocksDB /
      // WiredTiger speedup shrinks (paper: trimmed 3.3x -> 1.9x).
      {.id = "fig05",
       .title = "Fig. 5: dataset size vs steady-state behavior",
       .base = sweep(120),
       .axes = {States(), Engines({"lsm", "btree"}),
                DatasetFracs({0.25, 0.37, 0.5, 0.62})},
       .name_order = {1, 0, 2},
       .sections = {Grid{"Fig5(a) throughput (Kops/s)", "dataset/capacity:",
                         fig05_rows, fig05_cols, 2, {Kops}},
                    Grid{"Fig5(b) WA-D", "dataset/capacity:", fig05_rows,
                         fig05_cols, 2, {WaD}},
                    Grid{"Fig5(c) WA-A", "dataset/capacity:", fig05_rows,
                         fig05_cols, 2, {WaA}}},
       .report_title = "Fig. 5: paper vs measured",
       .comparisons =
           {{"trim speedup R/W at 0.25", 3.3,
             Ratio(Kops, {0, 0, 0}, {0, 1, 0}), "x"},
            {"trim speedup R/W at 0.62", 1.9,
             Ratio(Kops, {0, 0, 3}, {0, 1, 3}), "x"},
            {"prec speedup R/W at 0.25", 2.7,
             Ratio(Kops, {1, 0, 0}, {1, 1, 0}), "x"},
            {"prec speedup R/W at 0.62", 2.57,
             Ratio(Kops, {1, 0, 3}, {1, 1, 3}), "x"},
            {"RocksDB trim WA-D 0.25", 1.7, Of(WaD, {0, 0, 0})},
            {"RocksDB trim WA-D 0.62", 2.2, Of(WaD, {0, 0, 3})},
            {"WiredTiger trim WA-D 0.25", 1.1, Of(WaD, {0, 1, 0})},
            {"WiredTiger trim WA-D 0.62", 1.6, Of(WaD, {0, 1, 3})},
            {"WiredTiger prec WA-D 0.62", 2.6, Of(WaD, {1, 1, 3})},
            {"RocksDB WA-A 0.25 (mild growth)", 11.0, Of(WaA, {0, 0, 0})},
            {"RocksDB WA-A 0.62 (mild growth)", 12.3, Of(WaA, {0, 0, 3})}},
       .notes = {"throughput decline with dataset size is driven by WA-D "
                 "(device GC), not WA-A: compare the three grids"}},

      // Fig. 6 (Pitfall 5: ignoring space amplification): RocksDB runs
      // out of space on the two largest datasets, WiredTiger fits all
      // six; (c) is the storage-cost heatmap. The log engine's space
      // amplification sits near 1/(1-gc_trigger/2), between the two.
      {.id = "fig06",
       .title = "Fig. 6: space amplification and storage cost",
       .base = sweep(90),
       .axes = {Engines({"lsm", "btree", "alog"}),
                DatasetFracs({0.25, 0.37, 0.5, 0.62, 0.75, 0.88})},
       .sections = {Grid{"Fig6(a) peak disk utilization % (OOS = ran out "
                         "of space)",
                         "dataset/capacity:", fig06_rows, fig06_cols, 1,
                         {UtilPctOrOos}},
                    Grid{"Fig6(b) space amplification", "dataset/capacity:",
                         fig06_rows, fig06_cols, 2, {SpaceAmpOrOos}},
                    PrintFig06Heatmap},
       .report_title = "Fig. 6: paper vs measured",
       .comparisons =
           {{"RocksDB space amp at 0.25", 1.86, Of(SpaceAmp, {0, 0})},
            {"RocksDB space amp at 0.62", 1.39, Of(SpaceAmp, {0, 3})},
            {"WiredTiger space amp at 0.25", 1.15, Of(SpaceAmp, {1, 0})},
            {"WiredTiger space amp at 0.88", 1.12, Of(SpaceAmp, {1, 5})},
            {"RocksDB OOS datasets (count)", 2.0,
             [](const Results& r) {
               return Oos(r.at({0, 4})) + Oos(r.at({0, 5}));
             }},
            {"WiredTiger OOS datasets (count)", 0.0,
             [](const Results& r) {
               return Oos(r.at({1, 4})) + Oos(r.at({1, 5}));
             }}},
       .notes = {"heatmap: 'B' (wiredtiger) wins at large datasets with low "
                 "target throughput; 'A' (rocksdb) at high throughput"},
       .measured_note =
           [](const Results& r) {
             const ExperimentResult& a25 = r.at({2, 0});
             const ExperimentResult& a50 = r.at({2, 2});
             if (a25.ran_out_of_space || a50.ran_out_of_space) {
               return std::string();
             }
             return StrPrintf(
                 "alog (not in paper): space amp %.2f at 0.25, %.2f at "
                 "0.50; GC keeps dead bytes under the gc_trigger fraction "
                 "of the log",
                 SpaceAmp(a25), SpaceAmp(a50));
           }},

      // Fig. 7 (Pitfall 6: overlooking software OP): RocksDB gains ~1.8x
      // throughput (WA-D 2.3 -> 1.4) in both initial states; WiredTiger
      // barely benefits on a trimmed drive (its untouched LBAs already
      // act as OP) and moderately on a preconditioned one.
      {.id = "fig07",
       .title = "Fig. 7: software over-provisioning (OP)",
       .base = sweep(120),
       .axes = {Engines({"lsm", "btree"}), States(), Partitions()},
       .sections = {Grid{"Fig7 grid: rows = config, columns = {no OP, "
                         "extra OP}",
                         "",
                         {"rocksdb trim", "rocksdb prec", "wiredtiger trim",
                          "wiredtiger prec"},
                         {"Kops", "Kops+OP", "WA-D", "WA-D+OP"},
                         2,
                         {Kops, WaD}}},
       .report_title = "Fig. 7: paper vs measured",
       .comparisons =
           {{"RocksDB trim speedup from OP", 1.83,
             Ratio(Kops, {0, 0, 1}, {0, 0, 0}), "x"},
            {"RocksDB prec speedup from OP", 1.86,
             Ratio(Kops, {0, 1, 1}, {0, 1, 0}), "x"},
            {"RocksDB trim WA-D noOP", 2.3, Of(WaD, {0, 0, 0})},
            {"RocksDB trim WA-D extraOP", 1.4, Of(WaD, {0, 0, 1})},
            {"WiredTiger trim speedup from OP (~none)", 0.98,
             Ratio(Kops, {1, 0, 1}, {1, 0, 0}), "x"},
            {"WiredTiger prec speedup from OP", 1.14,
             Ratio(Kops, {1, 1, 1}, {1, 1, 0}), "x"},
            {"WiredTiger prec WA-D noOP", 1.7, Of(WaD, {1, 1, 0})},
            {"WiredTiger prec WA-D extraOP", 1.3, Of(WaD, {1, 1, 1})}}},

      // Fig. 8: the storage-cost heatmap of RocksDB with and without
      // extra OP on a preconditioned drive. Extra OP raises per-drive
      // throughput but lowers per-drive capacity, so it wins for small
      // datasets with high target throughput.
      {.id = "fig08",
       .title = "Fig. 8: storage cost of RocksDB with/without extra OP",
       .base =
           [](ExperimentConfig& c) {
             c.engine = "lsm";
             c.initial_state = ssd::InitialState::kPreconditioned;
             c.duration_minutes = 100;
             c.collect_lba_trace = false;
           },
       .axes = {Partitions(), DatasetFracs({0.25, 0.4, 0.5})},
       .sections = {PrintFig08Heatmap},
       .report_title = "Fig. 8: paper vs measured",
       .comparisons = {{"extra-OP throughput gain at 200GB", 1.83,
                        Fig08Speedup, "x"}},
       .notes = {"'B' (extra OP) should dominate the high-throughput / "
                 "small-dataset corner; 'A' (no OP) the large-dataset / "
                 "low-throughput corner, as in the paper's Fig. 8"}},

      // Fig. 9 (Pitfall 7: testing a single SSD type): RocksDB is fastest
      // on the Optane-like SSD3 and slowest on the consumer-QLC SSD2 (its
      // bursty writes overwhelm the cache), while WiredTiger is faster on
      // SSD2 than on SSD1, so either engine can "win" depending on the
      // device.
      {.id = "fig09",
       .title = "Fig. 9: throughput across SSD types",
       .default_scale = 200,
       .base = ssd_types,
       .axes = {Engines({"lsm", "btree"}), Profiles()},
       .sections = {Grid{"steady-state throughput (Kops/s)", "",
                         {"rocksdb", "wiredtiger"}, ssd_cols, 2, {Kops}}},
       .report_title = "Fig. 9: paper vs measured",
       .comparisons =
           {{"RocksDB SSD1", 8.7, Of(Kops, {0, 0}), "Kops/s"},
            {"RocksDB SSD2", 1.3, Of(Kops, {0, 1}), "Kops/s"},
            {"RocksDB SSD3", 24.1, Of(Kops, {0, 2}), "Kops/s"},
            {"WiredTiger SSD1", 1.2, Of(Kops, {1, 0}), "Kops/s"},
            {"WiredTiger SSD2", 1.6, Of(Kops, {1, 1}), "Kops/s"},
            {"WiredTiger SSD3", 2.9, Of(Kops, {1, 2}), "Kops/s"},
            {"RocksDB best/worst spread", 18.5, Ratio(Kops, {0, 2}, {0, 1}),
             "x"},
            {"WiredTiger best/worst spread", 2.4,
             [](const Results& r) {
               return Kops(r.at({1, 2})) /
                      std::min(Kops(r.at({1, 0})), Kops(r.at({1, 1})));
             },
             "x"}},
       .notes = {"qualitative target: RocksDB SSD3 > SSD1 > SSD2; "
                 "WiredTiger SSD3 > SSD2 >= SSD1 (either engine can win)"}},

      // Fig. 10: Fig. 9's cells in the paper's 1-minute windows.
      // RocksDB's throughput swings widely (~100% on SSD1, long stalls on
      // SSD2, ~30% on SSD3); WiredTiger stays steady on every device.
      {.id = "fig10",
       .title = "Fig. 10: throughput variability across SSD types",
       .default_scale = 200,
       .base =
           [ssd_types](ExperimentConfig& c) {
             ssd_types(c);
             c.window_minutes = 1;
           },
       .axes = {Engines({"lsm", "btree"}), Profiles()},
       .series_csv = true,
       .sections = {PrintSparklines,
                    Grid{"coefficient of variation of 1-minute throughput:",
                         "", {"rocksdb", "wiredtiger"}, ssd_cols, 3, {Cv}}},
       .report_title = "Fig. 10: paper vs measured (variability)",
       .comparisons =
           {{"RocksDB CV on SSD1", 0.3, Of(Cv, {0, 0})},
            {"RocksDB CV on SSD2 (stall-heavy)", 0.6, Of(Cv, {0, 1})},
            {"RocksDB CV on SSD3", 0.1, Of(Cv, {0, 2})},
            {"WiredTiger CV on SSD1 (steady)", 0.03, Of(Cv, {1, 0})},
            {"WiredTiger CV on SSD2 (steady)", 0.03, Of(Cv, {1, 1})}},
       .notes = {"qualitative target: RocksDB varies far more than "
                 "WiredTiger on every device, worst on SSD2"}},

      // Fig. 11: the first three pitfalls hold for other workloads too:
      // 128-byte values with proportionally more keys (NumKeys scales
      // automatically), and a 50:50 read/write mix. With 128 B values
      // WiredTiger's trimmed WA-D starts near 2, not 1: packing many small
      // pairs rewrites the same filesystem pages during loading.
      {.id = "fig11",
       .title = "Fig. 11: other workloads (small values; 50:50 r/w)",
       .base = sweep(120),
       .axes = {{Mix("128B-values", 128, 1.0), Mix("rw50", 4000, 0.5)},
                Engines({"lsm", "btree", "alog"}), States()},
       .print_series = true,
       .report_title = "Fig. 11: paper vs measured",
       .comparisons =
           {{"128B rocksdb trim Kops (paper ~100-300)", 200,
             Of(Kops, {0, 0, 0}), "Kops/s"},
            {"128B wiredtiger trim Kops", 1.2, Of(Kops, {0, 1, 0}), "Kops/s"},
            {"128B wiredtiger trim first-window WA-D (~2)", 2.0,
             Of(FirstWaD, {0, 1, 0})},
            {"rw50 rocksdb trim Kops", 8.0, Of(Kops, {1, 0, 0}), "Kops/s"},
            {"rw50 wiredtiger trim Kops", 1.5, Of(Kops, {1, 1, 0}), "Kops/s"},
            // Pitfall 3 still applies: initial state changes steady state.
            {"rw50 wiredtiger trim/prec Kops ratio (>1)", 1.2,
             [](const Results& r) {
               return Kops(r.at({1, 1, 0})) /
                      std::max(0.001, Kops(r.at({1, 1, 1})));
             },
             "x"}},
       .notes = {"pitfalls 1-3 (short tests, WA-D, initial state) show in "
                 "every variant with a sustained write component"},
       .measured_note =
           [](const Results& r) {
             return StrPrintf(
                 "alog (not in paper): 128B trim %.2f Kops/s, rw50 trim "
                 "%.2f Kops/s — small values amortize poorly in every "
                 "engine but the log pays no read-modify-write for them",
                 Kops(r.at({0, 2, 0})), Kops(r.at({1, 2, 0})));
           }},

      // Extension beyond the paper: zipfian update skew. Hot logical
      // pages are invalidated quickly, so flash blocks holding hot data
      // drain to low valid counts and become cheap GC victims. Expected:
      // WA-D drops with skew for the B+Tree (in-place-ish updates keep
      // the logical->physical heat mapping), while the LSM's compactions
      // launder the skew away and keep WA-D near the uniform case.
      {.id = "ext_skew",
       .title = "extension: zipfian update skew vs WA-D",
       .base =
           [](ExperimentConfig& c) {
             c.initial_state = ssd::InitialState::kPreconditioned;  // GC on
             c.duration_minutes = 120;
             c.collect_lba_trace = false;
           },
       .axes = {Engines({"lsm", "btree"}),
                {Skew("uniform", kv::Distribution::kUniform, 0),
                 Skew("zipf0.8", kv::Distribution::kZipfian, 0.8),
                 Skew("zipf0.99", kv::Distribution::kZipfian, 0.99)}},
       .sections = {Grid{"preconditioned SSD1, steady state:",
                         "engine workload",
                         {"rocksdb uniform", "rocksdb zipf0.8",
                          "rocksdb zipf0.99", "wiredtiger uniform",
                          "wiredtiger zipf0.8", "wiredtiger zipf0.99"},
                         {"Kops/s", "WA-A", "WA-D"},
                         2,
                         {Kops, WaA, WaD}}},
       .report_title = "extension findings",
       // Measured against measured, uniform as the baseline.
       .comparisons =
           {{"btree WA-D uniform -> zipf0.99 (expect drop)", 0,
             Of(WaD, {1, 2}), "", Of(WaD, {1, 0})},
            {"lsm WA-A uniform -> zipf0.99 (expect drop: duplicate keys "
             "compact away)",
             0, Of(WaA, {0, 2}), "", Of(WaA, {0, 0})}},
       .notes = {"columns here are measured-vs-measured (uniform as the "
                 "baseline), not paper values: this experiment extends the "
                 "paper"}},
  };
}

// ---- The runner.

struct RunFlags {
  std::string figure;  // empty: every figure
  uint64_t scale = 0;  // 0: the figure's default
  double minutes = 0;  // 0: the figure's own durations
  bool verbose = false;
};

void RunFigure(const Figure& fig, const RunFlags& flags) {
  std::printf("=== %s ===\n", fig.title.c_str());
  std::function<void(const std::string&)> progress;
  if (flags.verbose) {
    progress = [](const std::string& s) { std::printf("%s\n", s.c_str()); };
  }
  std::string prefix = fig.id;
  std::replace(prefix.begin(), prefix.end(), '_', '-');
  Results r;
  size_t cells = 1;
  for (const Axis& axis : fig.axes) {
    r.dims.push_back(axis.size());
    cells *= axis.size();
  }
  for (size_t i = 0; i < cells; i++) {
    ExperimentConfig c;
    if (fig.base) fig.base(c);
    std::vector<std::string> labels(fig.axes.size());
    for (size_t a = fig.axes.size(), rest = i; a-- > 0; rest /= r.dims[a]) {
      const Level& level = fig.axes[a][rest % r.dims[a]];
      level.apply(c);
      labels[a] = level.label;
    }
    c.name = prefix;
    for (size_t n = 0; n < labels.size(); n++) {
      c.name += "-" + labels[fig.name_order.empty() ? n : fig.name_order[n]];
    }
    c.scale = flags.scale != 0 ? flags.scale : fig.default_scale;
    if (flags.minutes > 0) c.duration_minutes = flags.minutes;
    auto result = core::RunExperiment(c, progress);
    if (!result.ok()) {
      std::fprintf(stderr, "experiment %s failed: %s\n", c.name.c_str(),
                   result.status().ToString().c_str());
      // A configuration the stack cannot build (e.g. a --scale the
      // profile's flash geometry cannot back) is a usage error, like a
      // bad flag (bench/flags.h).
      std::exit(result.status().IsInvalidArgument() ? 2 : 1);
    }
    const core::MetricsSeries& series = result->series;
    if (fig.print_series) std::printf("%s\n", series.ToTable(c.name).c_str());
    if (fig.series_csv) core::WriteResultsFile(c.name + ".csv", series.ToCsv());
    r.cells.push_back(*std::move(result));
  }

  for (const auto& section : fig.sections) section(r);
  core::Report report(fig.report_title);
  for (const Comparison& row : fig.comparisons) {
    report.AddComparison(row.label,
                         row.reference ? row.reference(r) : row.paper,
                         row.measured(r), row.unit);
  }
  for (const std::string& note : fig.notes) report.AddNote(note);
  if (fig.measured_note) {
    const std::string note = fig.measured_note(r);
    if (!note.empty()) report.AddNote(note);
  }
  report.PrintTo(stdout);
  if (fig.summary_csv) {
    core::WriteResultsFile(fig.id + "_summary.csv",
                           core::SteadySummaryCsv(r.cells));
  }
}

int Main(int argc, char** argv) {
  const std::vector<Figure> figures = Figures();
  RunFlags flags;
  bench::FlagParser parser;
  parser.Value("--figure", &flags.figure,
               "run one figure (default: every figure, in table order)");
  parser.Value("--scale", &flags.scale,
               "divide the paper's sizes by N (default: per figure)");
  parser.Value("--minutes", &flags.minutes,
               "simulated duration of every cell (default: per figure)");
  parser.Switch("--verbose", "per-window progress",
                [&flags] { flags.verbose = true; });
  std::string ids = "figures (id, default scale, title):\n";
  for (const Figure& fig : figures) {
    ids += StrPrintf("  %-9s %4llu  %s\n", fig.id.c_str(),
                     static_cast<unsigned long long>(fig.default_scale),
                     fig.title.c_str());
  }
  parser.Parse(argc, argv, ids);

  bool found = false;
  for (const Figure& fig : figures) {
    if (flags.figure.empty() || fig.id == flags.figure) {
      RunFigure(fig, flags);
      found = true;
    }
  }
  if (!found) parser.Fail("unknown figure: " + flags.figure);
  return 0;
}

}  // namespace
}  // namespace ptsb

int main(int argc, char** argv) { return ptsb::Main(argc, argv); }
