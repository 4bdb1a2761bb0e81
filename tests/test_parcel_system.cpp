// Behavioural tests of the Section 4 dual-system experiment: blocking
// message passing (control) versus parcel split transactions (test).
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>

#include "common/error.hpp"
#include "analytic/parcel_model.hpp"
#include "parcel/system.hpp"

namespace pimsim::parcel {
namespace {

SplitTransactionParams small_params() {
  SplitTransactionParams p;
  p.nodes = 8;
  p.horizon = 20'000.0;
  p.seed = 3;
  return p;
}

TEST(Params, Validation) {
  SplitTransactionParams p = small_params();
  p.nodes = 0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = small_params();
  p.ls_mix = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = small_params();
  p.parallelism = 0;
  EXPECT_THROW(p.validate(), ConfigError);
  p = small_params();
  p.horizon = 0.0;
  EXPECT_THROW(p.validate(), ConfigError);
}

TEST(ControlSystem, NoRemoteAccessesMeansNoIdle) {
  SplitTransactionParams p = small_params();
  p.p_remote = 0.0;
  const SystemRunResult r = run_message_passing_system(p);
  EXPECT_LT(r.mean_idle_fraction(), 0.01);
  EXPECT_GT(r.total_work(), 0.0);
  for (const auto& n : r.nodes) {
    EXPECT_EQ(n.remote_requests, 0u);
    EXPECT_EQ(n.accesses_served, 0u);
  }
}

TEST(ControlSystem, IdleGrowsWithLatency) {
  SplitTransactionParams p = small_params();
  p.round_trip_latency = 50.0;
  const double idle_short = run_message_passing_system(p).mean_idle_fraction();
  p.round_trip_latency = 1000.0;
  const double idle_long = run_message_passing_system(p).mean_idle_fraction();
  EXPECT_GT(idle_long, idle_short);
  EXPECT_GT(idle_long, 0.5);  // mostly waiting at L=1000, 10% remote
}

TEST(ControlSystem, WorkBalancesAcrossSymmetricNodes) {
  const SystemRunResult r = run_message_passing_system(small_params());
  double min_work = r.nodes[0].work(), max_work = r.nodes[0].work();
  for (const auto& n : r.nodes) {
    min_work = std::min(min_work, n.work());
    max_work = std::max(max_work, n.work());
  }
  EXPECT_GT(min_work, 0.6 * max_work);  // statistically similar
}

TEST(ControlSystem, RequestsAreServedSomewhere) {
  const SystemRunResult r = run_message_passing_system(small_params());
  std::uint64_t sent = 0, served = 0;
  for (const auto& n : r.nodes) {
    sent += n.remote_requests;
    served += n.accesses_served;
  }
  EXPECT_GT(sent, 0u);
  // In-flight requests at the horizon make served lag sent slightly.
  EXPECT_NEAR(static_cast<double>(served), static_cast<double>(sent),
              0.05 * static_cast<double>(sent) + 20.0);
}

TEST(TestSystem, SufficientParallelismDrivesIdleToZero) {
  // The paper: "for sufficient parallelism, the idle time drops virtually
  // to zero for the test systems".
  SplitTransactionParams p = small_params();
  p.round_trip_latency = 500.0;
  p.parallelism = 1;
  const double idle_p1 =
      run_split_transaction_system(p).mean_idle_fraction();
  p.parallelism = 32;
  const double idle_p32 =
      run_split_transaction_system(p).mean_idle_fraction();
  EXPECT_GT(idle_p1, 0.5);
  EXPECT_LT(idle_p32, 0.05);
}

TEST(TestSystem, IdleMonotonicallyDecreasesWithParallelism) {
  SplitTransactionParams p = small_params();
  p.round_trip_latency = 200.0;
  double prev = 1.0;
  for (std::size_t par : {1, 2, 4, 8, 16}) {
    p.parallelism = par;
    const double idle = run_split_transaction_system(p).mean_idle_fraction();
    EXPECT_LE(idle, prev + 0.03) << "parallelism " << par;
    prev = idle;
  }
}

TEST(Comparison, ParcelsWinAtHighLatencyWithParallelism) {
  SplitTransactionParams p = small_params();
  p.round_trip_latency = 1000.0;
  p.parallelism = 16;
  p.p_remote = 0.2;
  const ComparisonPoint point = compare_systems(p);
  EXPECT_GT(point.work_ratio, 3.0);  // large win when latency dominates
}

TEST(Comparison, OrderOfMagnitudePossible) {
  // The paper: "sometimes exceeding an order of magnitude".
  SplitTransactionParams p = small_params();
  p.round_trip_latency = 2000.0;
  p.parallelism = 32;
  p.p_remote = 0.5;
  const ComparisonPoint point = compare_systems(p);
  EXPECT_GT(point.work_ratio, 10.0);
}

TEST(Comparison, ReversalAtShortLatencyAndNoParallelism) {
  // The paper: "performance advantage is small or in fact reversed ...
  // when there is little parallelism and short system latencies".
  SplitTransactionParams p = small_params();
  p.round_trip_latency = 2.0;  // below 2 * t_switch
  p.parallelism = 1;
  p.t_switch = 4.0;
  const ComparisonPoint point = compare_systems(p);
  EXPECT_LT(point.work_ratio, 1.0);
}

TEST(Comparison, RatioGrowsWithLatency) {
  SplitTransactionParams p = small_params();
  p.parallelism = 16;
  p.p_remote = 0.2;
  double prev = 0.0;
  for (double latency : {50.0, 200.0, 1000.0}) {
    p.round_trip_latency = latency;
    const double ratio = compare_systems(p).work_ratio;
    EXPECT_GT(ratio, prev);
    prev = ratio;
  }
}

TEST(Comparison, SingleNodeSystemRunsSelfParcels) {
  // The paper's Figure 12 includes 1-node systems: remote accesses loop
  // back to the node itself but still pay the network latency.
  SplitTransactionParams p = small_params();
  p.nodes = 1;
  p.parallelism = 8;
  p.round_trip_latency = 200.0;
  const ComparisonPoint point = compare_systems(p);
  EXPECT_GT(point.work_ratio, 1.0);
  EXPECT_GT(point.control_idle, point.test_idle);
}

TEST(Comparison, DeterministicGivenSeed) {
  SplitTransactionParams p = small_params();
  const ComparisonPoint a = compare_systems(p);
  const ComparisonPoint b = compare_systems(p);
  EXPECT_DOUBLE_EQ(a.work_ratio, b.work_ratio);
  p.seed = 4;
  const ComparisonPoint c = compare_systems(p);
  EXPECT_NE(a.work_ratio, c.work_ratio);
}

TEST(Comparison, TopologyAblationStaysQualitativelySimilar) {
  // Replacing the flat network with ring/mesh at the same mean latency
  // must preserve the headline conclusion (parcels win with parallelism
  // at high latency).
  SplitTransactionParams p = small_params();
  p.nodes = 16;
  p.round_trip_latency = 500.0;
  p.parallelism = 16;
  p.p_remote = 0.2;
  for (const char* kind : {"flat", "ring", "mesh2d"}) {
    p.network = kind;
    const ComparisonPoint point = compare_systems(p);
    EXPECT_GT(point.work_ratio, 2.0) << kind;
  }
}

TEST(Bandwidth, ZeroGapMatchesDefaultExactly) {
  // nic_gap = 0 must take the direct delivery path and reproduce the
  // paper's infinite-bandwidth results bit for bit.
  SplitTransactionParams p = small_params();
  const ComparisonPoint base = compare_systems(p);
  p.nic_gap = 0.0;
  const ComparisonPoint zero = compare_systems(p);
  EXPECT_DOUBLE_EQ(base.work_ratio, zero.work_ratio);
  EXPECT_DOUBLE_EQ(base.test_work, zero.test_work);
}

TEST(Bandwidth, LargeGapClampsThroughputNearTheBound) {
  SplitTransactionParams p = small_params();
  p.horizon = 150'000.0;  // long run: the NIC backlog must dominate the
                          // pre-congestion transient in the average
  p.round_trip_latency = 500.0;
  p.parallelism = 32;  // plenty of latency-hiding parallelism
  p.p_remote = 0.2;
  p.nic_gap = 80.0;    // brutally slow NIC
  const auto run = run_split_transaction_system(p);
  const double per_node_rate =
      run.total_work() / (p.horizon * static_cast<double>(p.nodes));
  const double bound = analytic::test_throughput_bandwidth_bound(p);
  EXPECT_LT(per_node_rate, bound * 1.10);
  EXPECT_GT(per_node_rate, bound * 0.7);  // actually near the ceiling
}

TEST(Bandwidth, ParallelismStopsHelpingWhenBandwidthBound) {
  SplitTransactionParams p = small_params();
  p.horizon = 100'000.0;
  p.round_trip_latency = 500.0;
  p.p_remote = 0.2;
  p.nic_gap = 40.0;
  p.parallelism = 16;
  const double w16 = run_split_transaction_system(p).total_work();
  p.parallelism = 64;
  const double w64 = run_split_transaction_system(p).total_work();
  EXPECT_NEAR(w64 / w16, 1.0, 0.1);  // no further scaling
}

TEST(Bandwidth, MildGapBarelyPerturbsUnsaturatedSystem) {
  SplitTransactionParams p = small_params();
  p.parallelism = 2;  // low message rate
  p.nic_gap = 1.0;
  const double with_gap = compare_systems(p).work_ratio;
  p.nic_gap = 0.0;
  const double without = compare_systems(p).work_ratio;
  EXPECT_NEAR(with_gap, without, 0.1 * without);
}

TEST(Comparison, ZeroSwitchCostNeverReverses) {
  // With free context switches the test system can only tie or win.
  SplitTransactionParams p = small_params();
  p.t_switch = 0.0;
  p.t_send = 0.0;
  for (double latency : {5.0, 50.0, 500.0}) {
    p.round_trip_latency = latency;
    EXPECT_GT(compare_systems(p).work_ratio, 0.95) << latency;
  }
}


// Pins every NodeStats field of both Figure 10 systems, bit for bit, at a
// tiny ring point over memory {analytic, banked} x nic_gap {0, 3} x
// contention {0, 1}.  The values were taken before the two systems were
// put on one skeleton; any drift in either node program, the shared
// message path or the memory seam shows up here.
struct PinnedNode {
  double useful_cycles, mem_cycles, overhead_cycles, idle_cycles;
  std::uint64_t compute_ops, local_accesses, remote_requests, accesses_served;
};

// Order: system {control, test} x memory {analytic, banked} x
// nic_gap {0, 3} x contention {0, 1}, four nodes each.
constexpr PinnedNode kPinnedFigure10[] = {
    // control, analytic, nic_gap=0, contention=0
    {396, 1175.0000000000005, 10, 1294, 396, 116, 10, 11},
    {323, 1075.0000000000002, 11, 1582.6666666666658, 323, 105, 11, 13},
    {273, 976, 12, 1724, 273, 97, 12, 9},
    {186, 764.99999999999989, 15, 2015.3333333333342, 186, 75, 15, 14},
    // control, analytic, nic_gap=0, contention=1
    {396, 1175.3333333333328, 10, 1294.0000000000007, 396, 116, 10, 11},
    {323, 1075.3333333333328, 11, 1582.3333333333351, 323, 105, 11, 13},
    {273, 976, 12, 1724.3333333333344, 273, 97, 12, 9},
    {186, 764.99999999999989, 15, 2015.6666666666679, 186, 75, 15, 14},
    // control, analytic, nic_gap=3, contention=0
    {396, 1171.3333333333339, 10, 1344.666666666667, 396, 116, 10, 11},
    {314, 1018.3333333333335, 11, 1649.333333333333, 314, 99, 11, 13},
    {270, 966, 12, 1653.6666666666674, 270, 96, 12, 8},
    {176, 750, 14, 1950.0000000000002, 176, 74, 14, 13},
    // control, analytic, nic_gap=3, contention=1
    {396, 1168, 10, 1344.6666666666674, 396, 116, 10, 11},
    {314, 1018.3333333333328, 11, 1650.000000000002, 314, 99, 11, 13},
    {270, 966.00000000000023, 12, 1664.3333333333342, 270, 96, 12, 8},
    {176, 749.99999999999989, 14, 1950.6666666666679, 176, 74, 14, 13},
    // control, banked, nic_gap=0, contention=0
    {242, 1821.6666666666658, 6, 909.33333333333383, 242, 62, 6, 7},
    {210, 1898.3333333333335, 6, 884.66666666666595, 210, 63, 6, 9},
    {168, 1731.6666666666665, 7, 1063.333333333333, 168, 67, 7, 6},
    {139, 1445.6666666666661, 9, 1395.3333333333335, 139, 56, 9, 6},
    // control, banked, nic_gap=0, contention=1
    {242, 1821.3333333333339, 6, 909.66666666666697, 242, 62, 6, 7},
    {210, 1898.3333333333335, 6, 884.66666666666731, 210, 63, 6, 9},
    {168, 1731.6666666666663, 7, 1063.3333333333344, 168, 67, 7, 6},
    {139, 1445.666666666667, 9, 1395.3333333333339, 139, 56, 9, 6},
    // control, banked, nic_gap=3, contention=0
    {242, 1804.6666666666663, 6, 947.00000000000045, 242, 63, 6, 7},
    {214, 1830.3333333333335, 6, 929.33333333333303, 214, 68, 6, 8},
    {159, 1700.6666666666663, 7, 1123.0000000000005, 159, 60, 7, 6},
    {124, 1524.6666666666663, 9, 1315, 124, 53, 9, 6},
    // control, banked, nic_gap=3, contention=1
    {242, 1804.6666666666665, 6, 946.99999999999977, 242, 63, 6, 7},
    {214, 1830.333333333333, 6, 929.33333333333314, 214, 68, 6, 8},
    {159, 1700.6666666666658, 7, 1123.0000000000005, 159, 60, 7, 6},
    {124, 1524.6666666666661, 9, 1315, 124, 53, 9, 6},
    // test, analytic, nic_gap=0, contention=0
    {340, 1430, 82, 1139.6666666666667, 340, 133, 20, 10},
    {448, 1970, 86, 490.66666666666703, 448, 182, 18, 15},
    {492, 2060, 103, 345, 492, 186, 21, 20},
    {314, 1730, 101, 848.33333333333337, 314, 149, 17, 24},
    // test, analytic, nic_gap=0, contention=1
    {340, 1430, 82, 1139.6666666666674, 340, 133, 20, 10},
    {448, 1970, 86, 490.66666666666703, 448, 182, 18, 15},
    {492, 2060, 103, 345, 492, 186, 21, 20},
    {314, 1730, 101, 848.33333333333439, 314, 149, 17, 24},
    // test, analytic, nic_gap=3, contention=0
    {332, 1340, 81, 1239.6666666666665, 332, 123, 19, 11},
    {448, 1970, 84, 496.66666666666634, 448, 182, 18, 15},
    {492, 2060, 103, 345, 492, 186, 21, 20},
    {314, 1730, 101, 853.00000000000034, 314, 149, 17, 24},
    // test, analytic, nic_gap=3, contention=1
    {332, 1340, 81, 1239.6666666666679, 332, 123, 19, 11},
    {448, 1970, 84, 496.66666666666737, 448, 182, 18, 15},
    {492, 2060, 103, 345, 492, 186, 21, 20},
    {314, 1730, 101, 853, 314, 149, 17, 24},
    // test, banked, nic_gap=0, contention=0
    {87, 977.00000000000011, 36, 1900, 87, 25, 10, 3},
    {264, 2545.666666666667, 31, 152.33333333333309, 264, 110, 7, 4},
    {209, 2537.6666666666665, 32, 203.33333333333348, 209, 82, 6, 6},
    {108, 2224.9999999999995, 41, 626.00000000000034, 108, 59, 7, 10},
    // test, banked, nic_gap=0, contention=1
    {87, 977.00000000000011, 36, 1900, 87, 25, 10, 3},
    {264, 2545.666666666667, 31, 152.33333333333309, 264, 110, 7, 4},
    {209, 2537.6666666666665, 32, 203.33333333333348, 209, 82, 6, 6},
    {108, 2224.333333333333, 41, 626.66666666666708, 108, 59, 7, 10},
    // test, banked, nic_gap=3, contention=0
    {87, 965.00000000000011, 36, 1912, 87, 25, 10, 3},
    {264, 2542.666666666667, 31, 155.33333333333309, 264, 110, 7, 4},
    {209, 2534.6666666666665, 32, 206.33333333333348, 209, 82, 6, 6},
    {108, 2212.9999999999995, 41, 638.00000000000034, 108, 59, 7, 10},
    // test, banked, nic_gap=3, contention=1
    {87, 965.00000000000011, 36, 1912, 87, 25, 10, 3},
    {264, 2542.666666666667, 31, 155.33333333333309, 264, 110, 7, 4},
    {209, 2534.6666666666665, 32, 206.33333333333348, 209, 82, 6, 6},
    {108, 2213, 41, 638, 108, 59, 7, 10},
};

TEST(Figure10Systems, NodeStatsPinnedBitForBit) {
  const PinnedNode* want = kPinnedFigure10;
  for (const bool test_system : {false, true}) {
    for (const bool banked : {false, true}) {
      for (const double gap : {0.0, 3.0}) {
        for (const bool contention : {false, true}) {
          SplitTransactionParams p;
          p.nodes = 4;
          p.parallelism = 3;
          p.horizon = 3000.0;
          p.network = "ring";
          if (banked) {
            p.memory = "banked";
            p.mem_banks = 2;
            p.mem_queue = 1;
          }
          p.nic_gap = gap;
          p.contention = contention;
          const SystemRunResult r = test_system
                                        ? run_split_transaction_system(p)
                                        : run_message_passing_system(p);
          ASSERT_EQ(r.nodes.size(), 4u);
          for (std::size_t i = 0; i < r.nodes.size(); ++i, ++want) {
            const NodeStats& n = r.nodes[i];
            SCOPED_TRACE(::testing::Message()
                         << (test_system ? "test" : "control") << " banked="
                         << banked << " nic_gap=" << gap
                         << " contention=" << contention << " node=" << i);
            EXPECT_EQ(n.useful_cycles, want->useful_cycles);
            EXPECT_EQ(n.mem_cycles, want->mem_cycles);
            EXPECT_EQ(n.overhead_cycles, want->overhead_cycles);
            EXPECT_EQ(n.idle_cycles, want->idle_cycles);
            EXPECT_EQ(n.compute_ops, want->compute_ops);
            EXPECT_EQ(n.local_accesses, want->local_accesses);
            EXPECT_EQ(n.remote_requests, want->remote_requests);
            EXPECT_EQ(n.accesses_served, want->accesses_served);
          }
        }
      }
    }
  }
  EXPECT_EQ(want, std::end(kPinnedFigure10));
}

}  // namespace
}  // namespace pimsim::parcel
