// Golden seed-42 outputs of the Figure-4 cluster engines.
//
// Every row below is what the engines produced at seed 42 on a small
// config, frozen as exact integers (plus the exact p95 delay, which is a
// deterministic function of the delay sample). Any change to the step loop
// that moves an RNG draw, a routing decision, the service order or an
// accounting rule shows up here as a changed number. The matrix covers
// every LbStrategy (and every PairedDecisionSource kind behind
// PairedStrategy) under {steady, burst} arrivals, batch 1 and batch 3
// where the strategy allows it, and all three service policies; the
// sharded entry point runs at 1 and 4 shards on a real worker pool.
//
// A failing row prints the values the engine produced in the table's own
// syntax.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/supply_source.hpp"
#include "correlate/decision_source.hpp"
#include "lb/sharded_simulator.hpp"
#include "lb/simulator.hpp"
#include "lb/strategy.hpp"
#include "sim/sharded.hpp"

namespace ftl::lb {
namespace {

constexpr std::uint64_t kSeed = 42;
constexpr ServicePolicy kPolicies[] = {ServicePolicy::kPaperCFirst,
                                       ServicePolicy::kFifoPair,
                                       ServicePolicy::kEFirst};

struct PlainGolden {
  const char* name;
  long long arrived;
  long long served;
  long long still_queued;
  long long queue_sum;
  long long delay_sum;
  long long served_c;
  long long served_e;
  double p95_delay;
};

struct ShardedGolden {
  const char* name;
  long long arrived;
  long long served;
  long long still_queued;
  long long rounds_won;
  long long rounds_lost;
  long long queue_sum;
  long long delay_sum;
};

// clang-format off
const PlainGolden kPlainGolden[] = {
    {"random/steady/b1/paper-c-first", 8000, 7170, 830, 193848, 153708, 4026, 3144, 79},
    {"random/steady/b1/fifo-pair", 8000, 7889, 111, 45170, 44355, 3962, 3927, 19},
    {"random/steady/b1/e-first", 8000, 7858, 142, 60025, 57521, 3887, 3971, 37},
    {"random/steady/b3/paper-c-first", 24000, 11909, 12091, 2987085, 35588, 11909, 0, 9},
    {"random/steady/b3/fifo-pair", 24000, 6608, 17392, 3876863, 1258001, 3327, 3281, 281},
    {"random/steady/b3/e-first", 24000, 5689, 18311, 4408400, 720432, 0, 5689, 201},
    {"random/burst/b1/paper-c-first", 4612, 4567, 45, 12526, 11873, 2345, 2222, 14},
    {"random/burst/b1/fifo-pair", 4612, 4580, 32, 6306, 6203, 2328, 2252, 5},
    {"random/burst/b1/e-first", 4612, 4579, 33, 7506, 7269, 2315, 2264, 9},
    {"random/burst/b3/paper-c-first", 13710, 7749, 5961, 1488085, 256331, 6850, 899, 282},
    {"random/burst/b3/fifo-pair", 13710, 6955, 6755, 1736461, 944049, 3532, 3423, 215},
    {"random/burst/b3/e-first", 13710, 5854, 7856, 2274608, 297497, 0, 5854, 98},
    {"round-robin/steady/b1/paper-c-first", 8000, 7136, 864, 196240, 157528, 4024, 3112, 80},
    {"round-robin/steady/b1/fifo-pair", 8000, 7969, 31, 14045, 13952, 4015, 3954, 4},
    {"round-robin/steady/b1/e-first", 8000, 7974, 26, 10961, 10812, 4003, 3971, 5},
    {"round-robin/steady/b3/paper-c-first", 24000, 11946, 12054, 2983391, 20892, 11946, 0, 5},
    {"round-robin/steady/b3/fifo-pair", 24000, 6605, 17395, 3876463, 1258268, 3321, 3284, 280},
    {"round-robin/steady/b3/e-first", 24000, 5689, 18311, 4407600, 721119, 0, 5689, 200},
    {"round-robin/burst/b1/paper-c-first", 4612, 4575, 37, 8895, 8723, 2345, 2230, 9},
    {"round-robin/burst/b1/fifo-pair", 4612, 4578, 34, 4567, 4500, 2327, 2251, 3},
    {"round-robin/burst/b1/e-first", 4612, 4575, 37, 5078, 4966, 2314, 2261, 5},
    {"round-robin/burst/b3/paper-c-first", 13710, 7687, 6023, 1501084, 239401, 6859, 828, 285},
    {"round-robin/burst/b3/fifo-pair", 13710, 6963, 6747, 1736673, 947758, 3548, 3415, 215},
    {"round-robin/burst/b3/e-first", 13710, 5857, 7853, 2275553, 297147, 0, 5857, 91},
    {"po2/steady/b1/paper-c-first", 8000, 7345, 655, 149689, 127230, 4026, 3319, 60},
    {"po2/steady/b1/fifo-pair", 8000, 7969, 31, 11792, 11723, 4013, 3956, 3},
    {"po2/steady/b1/e-first", 8000, 7976, 24, 9817, 9733, 4007, 3969, 4},
    {"po2/steady/b3/paper-c-first", 24000, 11895, 12105, 2975532, 33589, 11895, 0, 8},
    {"po2/steady/b3/fifo-pair", 24000, 6600, 17400, 3876956, 1257247, 3313, 3287, 280},
    {"po2/steady/b3/e-first", 24000, 5686, 18314, 4406800, 720665, 0, 5686, 201},
    {"po2/burst/b1/paper-c-first", 4612, 4594, 18, 4197, 4153, 2346, 2248, 4},
    {"po2/burst/b1/fifo-pair", 4612, 4598, 14, 2774, 2755, 2340, 2258, 2},
    {"po2/burst/b1/e-first", 4612, 4599, 13, 2724, 2706, 2337, 2262, 3},
    {"po2/burst/b3/paper-c-first", 13710, 7798, 5912, 1477029, 268472, 6848, 950, 278},
    {"po2/burst/b3/fifo-pair", 13710, 6954, 6756, 1738012, 946850, 3535, 3419, 215.34999999999945},
    {"po2/burst/b3/e-first", 13710, 5858, 7852, 2276444, 297702, 0, 5858, 92},
    {"dedicated/steady/b1/paper-c-first", 8000, 7099, 901, 207298, 165478, 4019, 3080, 82},
    {"dedicated/steady/b1/fifo-pair", 8000, 7099, 901, 207298, 165478, 4019, 3080, 82},
    {"dedicated/steady/b1/e-first", 8000, 7099, 901, 207298, 165478, 4019, 3080, 82},
    {"dedicated/steady/b3/paper-c-first", 24000, 7800, 16200, 3607200, 1213428, 5708, 2092, 294},
    {"dedicated/steady/b3/fifo-pair", 24000, 7800, 16200, 3607200, 1213428, 5708, 2092, 294},
    {"dedicated/steady/b3/e-first", 24000, 7800, 16200, 3607200, 1213428, 5708, 2092, 294},
    {"dedicated/burst/b1/paper-c-first", 4612, 4584, 28, 12063, 11709, 2343, 2241, 13},
    {"dedicated/burst/b1/fifo-pair", 4612, 4584, 28, 12063, 11709, 2343, 2241, 13},
    {"dedicated/burst/b1/e-first", 4612, 4584, 28, 12063, 11709, 2343, 2241, 13},
    {"dedicated/burst/b3/paper-c-first", 13710, 8117, 5593, 1475953, 729481, 5855, 2262, 233},
    {"dedicated/burst/b3/fifo-pair", 13710, 8117, 5593, 1475953, 729481, 5855, 2262, 233},
    {"dedicated/burst/b3/e-first", 13710, 8117, 5593, 1475953, 729481, 5855, 2262, 233},
    {"local-batching/steady/b1/paper-c-first", 8000, 7160, 840, 194397, 152401, 4025, 3135, 89.049999999999272},
    {"local-batching/steady/b1/fifo-pair", 8000, 7897, 103, 45991, 45079, 3974, 3923, 16},
    {"local-batching/steady/b1/e-first", 8000, 7863, 137, 60073, 57409, 3895, 3968, 34},
    {"local-batching/steady/b3/paper-c-first", 24000, 11819, 12181, 2978304, 65354, 11819, 0, 18},
    {"local-batching/steady/b3/fifo-pair", 24000, 6606, 17394, 3877583, 1257360, 3325, 3281, 281},
    {"local-batching/steady/b3/e-first", 24000, 5688, 18312, 4408000, 720718, 0, 5688, 200},
    {"local-batching/burst/b1/paper-c-first", 4612, 4576, 36, 12973, 12608, 2345, 2231, 16},
    {"local-batching/burst/b1/fifo-pair", 4612, 4589, 23, 6054, 6005, 2334, 2255, 5},
    {"local-batching/burst/b1/e-first", 4612, 4591, 21, 7227, 7108, 2327, 2264, 8},
    {"local-batching/burst/b3/paper-c-first", 13710, 8187, 5523, 1399987, 350937, 6824, 1363, 261},
    {"local-batching/burst/b3/fifo-pair", 13710, 6973, 6737, 1737289, 948650, 3569, 3404, 216},
    {"local-batching/burst/b3/e-first", 13710, 5852, 7858, 2274118, 297759, 0, 5852, 97},
    {"paired(quantum-chsh)/steady/b1/paper-c-first", 8000, 7485, 515, 134949, 117778, 4025, 3460, 64},
    {"paired(quantum-chsh)/steady/b1/fifo-pair", 8000, 7900, 100, 44187, 43391, 3971, 3929, 14},
    {"paired(quantum-chsh)/steady/b1/e-first", 8000, 7871, 129, 57911, 55217, 3901, 3970, 30},
    {"paired(quantum-chsh)/burst/b1/paper-c-first", 4612, 4579, 33, 9883, 9510, 2344, 2235, 12},
    {"paired(quantum-chsh)/burst/b1/fifo-pair", 4612, 4587, 25, 6596, 6509, 2335, 2252, 5},
    {"paired(quantum-chsh)/burst/b1/e-first", 4612, 4579, 33, 7912, 7649, 2315, 2264, 9},
    {"paired(classical-chsh)/steady/b1/paper-c-first", 8000, 7131, 869, 201896, 159528, 4026, 3105, 89},
    {"paired(classical-chsh)/steady/b1/fifo-pair", 8000, 7889, 111, 37694, 36847, 3976, 3913, 13},
    {"paired(classical-chsh)/steady/b1/e-first", 8000, 7857, 143, 47348, 44530, 3890, 3967, 27},
    {"paired(classical-chsh)/burst/b1/paper-c-first", 4612, 4576, 36, 12202, 11586, 2346, 2230, 14},
    {"paired(classical-chsh)/burst/b1/fifo-pair", 4612, 4593, 19, 5812, 5750, 2339, 2254, 5},
    {"paired(classical-chsh)/burst/b1/e-first", 4612, 4593, 19, 6576, 6424, 2333, 2260, 7},
    {"paired(omniscient)/steady/b1/paper-c-first", 8000, 7560, 440, 110978, 98095, 4025, 3535, 57},
    {"paired(omniscient)/steady/b1/fifo-pair", 8000, 7881, 119, 44201, 43297, 3967, 3914, 14},
    {"paired(omniscient)/steady/b1/e-first", 8000, 7842, 158, 58044, 54782, 3875, 3967, 32},
    {"paired(omniscient)/burst/b1/paper-c-first", 4612, 4579, 33, 8281, 7995, 2342, 2237, 9},
    {"paired(omniscient)/burst/b1/fifo-pair", 4612, 4589, 23, 6214, 6144, 2337, 2252, 5},
    {"paired(omniscient)/burst/b1/e-first", 4612, 4589, 23, 7472, 7329, 2329, 2260, 8},
    {"paired(independent)/steady/b1/paper-c-first", 8000, 7311, 689, 170335, 139384, 4026, 3285, 76},
    {"paired(independent)/steady/b1/fifo-pair", 8000, 7830, 170, 56582, 54369, 3939, 3891, 19},
    {"paired(independent)/steady/b1/e-first", 8000, 7773, 227, 76663, 68393, 3809, 3964, 41},
    {"paired(independent)/burst/b1/paper-c-first", 4612, 4571, 41, 13921, 13368, 2346, 2225, 17},
    {"paired(independent)/burst/b1/fifo-pair", 4612, 4579, 33, 8458, 8315, 2332, 2247, 7},
    {"paired(independent)/burst/b1/e-first", 4612, 4571, 41, 10617, 10287, 2312, 2259, 13},
    {"paired(supply)/steady/b1/paper-c-first", 8000, 7225, 775, 181845, 146630, 4025, 3200, 78},
    {"paired(supply)/steady/b1/fifo-pair", 8000, 7881, 119, 36715, 35815, 3961, 3920, 12},
    {"paired(supply)/steady/b1/e-first", 8000, 7843, 157, 47462, 44362, 3872, 3971, 27},
    {"paired(supply)/burst/b1/paper-c-first", 4612, 4570, 42, 10978, 10487, 2345, 2225, 12},
    {"paired(supply)/burst/b1/fifo-pair", 4612, 4583, 29, 5937, 5852, 2328, 2255, 5},
    {"paired(supply)/burst/b1/e-first", 4612, 4581, 31, 6701, 6487, 2317, 2264, 7},
};

const ShardedGolden kShardedGolden[] = {
    {"random/shards1/paper-c-first", 16000, 14323, 1677, 0, 0, 390786, 311836},
    {"random/shards1/fifo-pair", 16000, 15744, 256, 0, 0, 85561, 83464},
    {"random/shards1/e-first", 16000, 15640, 360, 0, 0, 112683, 104678},
    {"random/shards4/paper-c-first", 16000, 14306, 1694, 0, 0, 392489, 307926},
    {"random/shards4/fifo-pair", 16000, 15776, 224, 0, 0, 76749, 75101},
    {"random/shards4/e-first", 16000, 15700, 300, 0, 0, 100788, 95309},
    {"quantum-chsh/shards1/paper-c-first", 16000, 15036, 964, 6823, 1177, 250384, 221649},
    {"quantum-chsh/shards1/fifo-pair", 16000, 15729, 271, 6823, 1177, 84634, 82261},
    {"quantum-chsh/shards1/e-first", 16000, 15628, 372, 6823, 1177, 113629, 104340},
    {"quantum-chsh/shards4/paper-c-first", 16000, 14921, 1079, 6870, 1130, 268437, 228765},
    {"quantum-chsh/shards4/fifo-pair", 16000, 15755, 245, 6870, 1130, 93789, 91662},
    {"quantum-chsh/shards4/e-first", 16000, 15679, 321, 6870, 1130, 124603, 117209},
    {"classical-chsh/shards1/paper-c-first", 16000, 14322, 1678, 5964, 2036, 386357, 311508},
    {"classical-chsh/shards1/fifo-pair", 16000, 15770, 230, 5964, 2036, 76029, 74402},
    {"classical-chsh/shards1/e-first", 16000, 15688, 312, 5964, 2036, 99187, 93036},
    {"classical-chsh/shards4/paper-c-first", 16000, 14263, 1737, 5992, 2008, 398036, 309438},
    {"classical-chsh/shards4/fifo-pair", 16000, 15786, 214, 5992, 2008, 74818, 73163},
    {"classical-chsh/shards4/e-first", 16000, 15730, 270, 5992, 2008, 95709, 90533},
    {"omniscient/shards1/paper-c-first", 16000, 15144, 856, 8000, 0, 222381, 198104},
    {"omniscient/shards1/fifo-pair", 16000, 15736, 264, 8000, 0, 89662, 87470},
    {"omniscient/shards1/e-first", 16000, 15630, 370, 8000, 0, 119659, 110546},
    {"omniscient/shards4/paper-c-first", 16000, 15115, 885, 8000, 0, 218908, 190429},
    {"omniscient/shards4/fifo-pair", 16000, 15761, 239, 8000, 0, 84355, 82309},
    {"omniscient/shards4/e-first", 16000, 15693, 307, 8000, 0, 110403, 103904},
    {"independent/shards1/paper-c-first", 16000, 14699, 1301, 3990, 4010, 315843, 265195},
    {"independent/shards1/fifo-pair", 16000, 15718, 282, 3990, 4010, 99290, 96829},
    {"independent/shards1/e-first", 16000, 15612, 388, 3990, 4010, 134253, 124652},
    {"independent/shards4/paper-c-first", 16000, 14609, 1391, 3982, 4018, 335350, 270084},
    {"independent/shards4/fifo-pair", 16000, 15683, 317, 3982, 4018, 108528, 105011},
    {"independent/shards4/e-first", 16000, 15552, 448, 3982, 4018, 147346, 133557},
};
// clang-format on

template <typename Row>
const Row* find_row(const Row* begin, const Row* end, const std::string& name) {
  for (const Row* r = begin; r != end; ++r) {
    if (name == r->name) return r;
  }
  return nullptr;
}

long long round_ll(double x) { return std::llround(x); }

PlainGolden plain_row(const LbConfig& cfg, const LbResult& r) {
  const double samples = static_cast<double>(cfg.measure_steps) *
                         static_cast<double>(cfg.num_servers);
  const double delay_sum = r.mean_delay * static_cast<double>(r.served);
  // LbResult reports per-type mean delays but not per-type counts; the
  // counts follow from served_c + served_e == served and
  // served_c * mean_delay_c + served_e * mean_delay_e == delay_sum
  // whenever the two means differ (-1 marks the degenerate case).
  long long served_c = -1;
  long long served_e = -1;
  if (std::abs(r.mean_delay_c - r.mean_delay_e) >= 1e-3) {
    served_c = round_ll((delay_sum - static_cast<double>(r.served) *
                                         r.mean_delay_e) /
                        (r.mean_delay_c - r.mean_delay_e));
    served_e = r.served - served_c;
  }
  return PlainGolden{nullptr,
                     r.arrived,
                     r.served,
                     r.still_queued,
                     round_ll(r.mean_queue_length * samples),
                     round_ll(delay_sum),
                     served_c,
                     served_e,
                     r.p95_delay};
}

std::string format_row(const std::string& name, const PlainGolden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %lld, %lld, %lld, %lld, %lld, %lld, %lld, %.17g},",
                name.c_str(), g.arrived, g.served, g.still_queued, g.queue_sum,
                g.delay_sum, g.served_c, g.served_e, g.p95_delay);
  return buf;
}

std::string format_row(const std::string& name, const ShardedGolden& g) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{\"%s\", %lld, %lld, %lld, %lld, %lld, %lld, %lld},",
                name.c_str(), g.arrived, g.served, g.still_queued,
                g.rounds_won, g.rounds_lost, g.queue_sum, g.delay_sum);
  return buf;
}

bool same(const PlainGolden& a, const PlainGolden& b) {
  return a.arrived == b.arrived && a.served == b.served &&
         a.still_queued == b.still_queued && a.queue_sum == b.queue_sum &&
         a.delay_sum == b.delay_sum && a.served_c == b.served_c &&
         a.served_e == b.served_e && a.p95_delay == b.p95_delay;
}

bool same(const ShardedGolden& a, const ShardedGolden& b) {
  return a.arrived == b.arrived && a.served == b.served &&
         a.still_queued == b.still_queued && a.rounds_won == b.rounds_won &&
         a.rounds_lost == b.rounds_lost && a.queue_sum == b.queue_sum &&
         a.delay_sum == b.delay_sum;
}

template <typename Row, std::size_t N>
void expect_golden(const Row (&table)[N], const std::string& name,
                   const Row& got) {
  const Row* want = find_row(table, table + N, name);
  if (want == nullptr) {
    ADD_FAILURE() << "no golden row for " << name << "; got\n"
                  << format_row(name, got);
  } else if (!same(*want, got)) {
    ADD_FAILURE() << "golden row changed; want\n"
                  << format_row(name, *want) << "\ngot\n"
                  << format_row(name, got);
  }
}

// --- run_lb_sim ------------------------------------------------------------

LbConfig plain_cfg(bool burst, std::size_t batch, ServicePolicy policy) {
  LbConfig cfg;
  cfg.num_balancers = 20;
  cfg.num_servers = 16;
  cfg.p_colocate = 0.5;
  cfg.batch_size = batch;
  // High activity below 1 makes every balancer draw its own activity, so
  // paired strategies see lone active balancers.
  if (burst) cfg.burst = BurstModel{0.9, 0.3, 20.0};
  cfg.policy = policy;
  cfg.warmup_steps = 50;
  cfg.measure_steps = 400;
  cfg.seed = kSeed;
  return cfg;
}

std::unique_ptr<LbStrategy> make_unpaired(const std::string& kind) {
  if (kind == "random") return std::make_unique<RandomStrategy>();
  if (kind == "round-robin") return std::make_unique<RoundRobinStrategy>();
  if (kind == "po2") return std::make_unique<PowerOfTwoStrategy>();
  if (kind == "dedicated") {
    return std::make_unique<DedicatedServersStrategy>(0.5);
  }
  return std::make_unique<LocalBatchingStrategy>();
}

std::unique_ptr<correlate::PairedDecisionSource> make_paired_source(
    const std::string& kind) {
  if (kind != "supply") return correlate::make_source(kind);
  core::PairConfig pc;
  pc.backend = core::Backend::kQuantum;
  qnet::QnetConfig supply;
  supply.pair_rate_hz = 5e3;  // starved against 1e4 rounds/s
  pc.supply = supply;
  pc.round_rate_hz = 1e4;
  pc.seed = kSeed + 17;
  return std::make_unique<core::SupplyAwareSource>(pc);
}

std::string variant(bool burst, std::size_t batch, ServicePolicy policy) {
  return std::string(burst ? "burst" : "steady") + "/b" +
         std::to_string(batch) + "/" + to_string(policy);
}

TEST(LbGolden, UnpairedStrategies) {
  for (const char* kind :
       {"random", "round-robin", "po2", "dedicated", "local-batching"}) {
    for (bool burst : {false, true}) {
      for (std::size_t batch : {1u, 3u}) {
        for (ServicePolicy policy : kPolicies) {
          const LbConfig cfg = plain_cfg(burst, batch, policy);
          const std::string name =
              std::string(kind) + "/" + variant(burst, batch, policy);
          auto strategy = make_unpaired(kind);
          const LbResult r = run_lb_sim(cfg, *strategy);
          expect_golden(kPlainGolden, name, plain_row(cfg, r));
        }
      }
    }
  }
}

TEST(LbGolden, PairedStrategies) {
  for (const char* kind : {"quantum-chsh", "classical-chsh", "omniscient",
                           "independent", "supply"}) {
    for (bool burst : {false, true}) {
      for (ServicePolicy policy : kPolicies) {
        const LbConfig cfg = plain_cfg(burst, 1, policy);
        const std::string name = std::string("paired(") + kind + ")/" +
                                 variant(burst, 1, policy);
        PairedStrategy strategy(make_paired_source(kind));
        const LbResult r = run_lb_sim(cfg, strategy);
        expect_golden(kPlainGolden, name, plain_row(cfg, r));
      }
    }
  }
}

// --- run_sharded_lb_sim ----------------------------------------------------

TEST(LbGolden, ShardedEngine) {
  sim::ShardPool pool(4);
  for (const char* source : {"random", "quantum-chsh", "classical-chsh",
                             "omniscient", "independent"}) {
    for (std::size_t shards : {1u, 4u}) {
      for (ServicePolicy policy : kPolicies) {
        ShardedLbConfig cfg;
        cfg.num_balancers = 40;
        cfg.num_servers = 32;
        cfg.policy = policy;
        cfg.warmup_steps = 50;
        cfg.measure_steps = 400;
        cfg.seed = kSeed;
        cfg.num_shards = shards;
        cfg.source = source;
        const ShardedLbResult r = run_sharded_lb_sim(cfg, &pool);
        const double samples = static_cast<double>(cfg.measure_steps) *
                               static_cast<double>(cfg.num_servers);
        const ShardedGolden got{
            nullptr,
            r.counters.arrived,
            r.counters.served,
            r.counters.still_queued,
            r.counters.rounds_won,
            r.counters.rounds_lost,
            round_ll(r.mean_queue_length * samples),
            round_ll(r.mean_delay * static_cast<double>(r.counters.served))};
        const std::string name = std::string(source) + "/shards" +
                                 std::to_string(shards) + "/" +
                                 to_string(policy);
        expect_golden(kShardedGolden, name, got);
      }
    }
  }
}

}  // namespace
}  // namespace ftl::lb
