// Capacity planner: the paper's storage-cost model (Figs. 6c and 8) as a
// small planning tool. Given per-instance measurements of two candidate
// deployments, prints which one needs fewer drives across a grid of
// (dataset size, target throughput) requirements.
//
//   ./build/capacity_planner [dataset_tb] [target_kops]
#include <cstdio>
#include <cstdlib>

#include "core/cost_model.h"

using namespace ptsb;

int main(int argc, char** argv) {
  // Measured operating points in the spirit of the paper's Fig. 5/6:
  // RocksDB: higher throughput, higher space amplification (less dataset
  // per 400 GB drive). WiredTiger: lower throughput, more data per drive.
  core::SystemProfile rocksdb{
      "rocksdb-like",
      {
          {100ull * 1000 * 1000 * 1000, 3.3},  // 100 GB/instance, 3.3 Kops
          {150ull * 1000 * 1000 * 1000, 2.2},
          {200ull * 1000 * 1000 * 1000, 1.8},
          {250ull * 1000 * 1000 * 1000, 1.7},
      }};
  core::SystemProfile wiredtiger{
      "wiredtiger-like",
      {
          {100ull * 1000 * 1000 * 1000, 1.0},
          {200ull * 1000 * 1000 * 1000, 1.0},
          {300ull * 1000 * 1000 * 1000, 1.0},
          {350ull * 1000 * 1000 * 1000, 0.9},
      }};

  if (argc == 3) {
    const double ds_tb = std::atof(argv[1]);
    const double kops = std::atof(argv[2]);
    const uint64_t a = core::DrivesNeeded(rocksdb, ds_tb, kops);
    const uint64_t b = core::DrivesNeeded(wiredtiger, ds_tb, kops);
    std::printf("requirement: %.1f TB at %.1f Kops/s\n", ds_tb, kops);
    std::printf("  %-16s -> %llu drives\n", rocksdb.name.c_str(),
                static_cast<unsigned long long>(a));
    std::printf("  %-16s -> %llu drives\n", wiredtiger.name.c_str(),
                static_cast<unsigned long long>(b));
    std::printf("cheaper: %s\n",
                a == b ? "same" : (a < b ? rocksdb.name : wiredtiger.name)
                                      .c_str());
    return 0;
  }

  const auto heatmap = core::ComputeHeatmap(
      rocksdb, wiredtiger, {1, 2, 3, 4, 5}, {5, 10, 15, 20, 25});
  std::printf("%s\n", heatmap.Render().c_str());
  std::printf(
      "Reading the map (matches the paper's Fig. 6c): the B+Tree engine's\n"
      "lower space amplification wins when deployments are capacity-bound\n"
      "(big datasets, modest throughput); the LSM engine wins when they\n"
      "are throughput-bound.\n\n"
      "Run with arguments for a single decision: capacity_planner 3.5 12\n");
  return 0;
}
