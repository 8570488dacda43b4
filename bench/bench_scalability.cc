// Scalability study (hypothesis 1 of §4: "significant performance
// improvements ... and scalability over realistic industrial-scale
// infrastructure"):
//   * epoch time and scaling efficiency as the cluster grows from 1 to 16
//     nodes (8 -> 128 GPUs), BAGUA's best algorithm vs the best baseline,
//     at 25 Gbps;
//   * the collective crossover sweep: flat ring vs hierarchical vs tree vs
//     parameter server, priced by both the closed-form two-tier alpha-beta
//     model and the segment-level DES pricers (sim/collective_cost.h),
//     from 16 to 2048 simulated ranks. --scale-json=PATH writes the gate
//     numbers scripts/scale_gate.sh checks (BENCH_SCALE.json).

#include "bench_common.h"

#include <algorithm>
#include <cmath>

namespace bagua {
namespace {

void Run(const char* model) {
  PrintSection(std::string("Scalability: ") + model +
               " epoch time vs cluster size (25 Gbps)");
  ReportTable table({"nodes", "gpus", "bagua best (s)", "bagua scaling eff",
                     "best baseline (s)", "baseline scaling eff"});
  double bagua_base = 0, baseline_base = 0;
  for (int nodes : {1, 2, 4, 8, 16}) {
    TimingConfig cfg;
    cfg.model = ModelProfile::ByName(model);
    cfg.net = NetworkConfig::Tcp25();
    cfg.topo = ClusterTopology::Make(nodes, 8);
    const EpochEstimate bagua = BaguaEpoch(cfg, BestBaguaAlgorithmFor(model));
    const EpochEstimate baseline = BestBaselineEpoch(cfg);
    if (nodes == 1) {
      bagua_base = bagua.epoch_s;
      baseline_base = baseline.epoch_s;
    }
    // Perfect scaling: epoch time drops linearly with cluster size.
    const double bagua_eff = bagua_base / nodes / bagua.epoch_s;
    const double baseline_eff = baseline_base / nodes / baseline.epoch_s;
    table.AddRow({Fmt(nodes, "%.0f"), Fmt(nodes * 8, "%.0f"),
                  Fmt(bagua.epoch_s), Fmt(bagua_eff * 100, "%.0f%%"),
                  Fmt(baseline.epoch_s), Fmt(baseline_eff * 100, "%.0f%%")});
  }
  table.Print();
}

// ------------------------------------------------------------ scale sweep

/// The two-tier fabric the crossover sweep prices: the paper's 25 Gbps TCP
/// testbed plus LogGP endpoint overheads and a BytePS-style server reduce
/// throughput (zero-default fields of NetworkConfig, see sim/network.h).
NetworkConfig SweepNet() {
  NetworkConfig net = NetworkConfig::Tcp25();
  net.inter_msg_overhead_s = 5e-6;
  net.intra_msg_overhead_s = 1e-6;
  net.ps_server_reduce_Bps = 2.5e9;
  return net;
}

constexpr int kSweepNodes[] = {2, 4, 8, 16, 32, 64, 128, 256};
constexpr int kDevicesPerNode = 8;
/// A gradient bucket: latency-vs-bandwidth balanced, where the
/// hierarchical split pays off most.
constexpr double kBucketBytes = 256.0 * 1024.0;
/// A whole model exchanged at once — the bandwidth-bound regime where the
/// sharded parameter server eventually overtakes the leader ring.
constexpr double kModelBytes = 32.0 * 1024.0 * 1024.0;
/// A small tensor (one layer's bias): the latency-bound regime the
/// binomial tree targets.
constexpr double kSmallBytes = 16.0 * 1024.0;
/// DES wire segments per message. The closed forms price each hop's chunk
/// as one message, so the differential sweep runs the pricers at the same
/// granularity; tests/scale_model_test.cc exercises multi-segment runs.
constexpr int kSweepSegments = 1;

std::vector<int> AllRanks(const ClusterTopology& topo) {
  std::vector<int> ranks(topo.world_size());
  for (int r = 0; r < topo.world_size(); ++r) ranks[r] = r;
  return ranks;
}

double RelErr(double model, double des) {
  if (des <= 0.0) return 0.0;
  return std::fabs(model / des - 1.0);
}

struct ScaleGate {
  double hier_speedup_16x8 = 0.0;
  double tree_speedup_16x8 = 0.0;
  double flat_hier_crossover_ranks = 0.0;
  double ps_crossover_ranks = 0.0;
  double model_agreement_max_err = 0.0;
};

ScaleGate SweepCollectives() {
  const NetworkConfig net = SweepNet();
  ScaleGate gate;

  PrintSection(
      "Crossover sweep: flat vs hierarchical allreduce, DES-priced, "
      "256 KiB bucket");
  ReportTable bucket({"nodes", "ranks", "flat des (ms)", "hier des (ms)",
                      "flat model (ms)", "hier model (ms)", "speedup",
                      "winner"});
  PrintSection("Crossover sweep: hierarchical vs parameter server, 32 MiB");
  ReportTable model_tbl({"nodes", "ranks", "hier des (ms)", "ps des (ms)",
                         "hier model (ms)", "ps model (ms)", "winner"});
  PrintSection("Crossover sweep: flat vs binomial tree, 16 KiB tensor");
  ReportTable small_tbl({"nodes", "ranks", "flat des (ms)", "tree des (ms)",
                         "tree model (ms)", "speedup"});

  for (int nodes : kSweepNodes) {
    const ClusterTopology topo = ClusterTopology::Make(nodes, kDevicesPerNode);
    const int ranks = topo.world_size();
    const auto world = AllRanks(topo);

    // Bucket-sized: flat ring vs hierarchical.
    const double flat_des =
        DesRingAllreduceTime(topo, net, world, kBucketBytes, kSweepSegments);
    const double hier_des =
        DesHierAllreduceTime(topo, net, kBucketBytes, kSweepSegments);
    const double flat_model = RingAllreduceCost(topo, net, kBucketBytes);
    const double hier_model = HierRingAllreduceCost(topo, net, kBucketBytes);
    bucket.AddRow({Fmt(nodes, "%.0f"), Fmt(ranks, "%.0f"),
                   Fmt(flat_des * 1e3, "%.3f"), Fmt(hier_des * 1e3, "%.3f"),
                   Fmt(flat_model * 1e3, "%.3f"),
                   Fmt(hier_model * 1e3, "%.3f"),
                   Fmt(flat_des / hier_des, "%.2fx"),
                   hier_des < flat_des ? "hier" : "flat"});
    if (hier_des < flat_des && gate.flat_hier_crossover_ranks == 0.0) {
      gate.flat_hier_crossover_ranks = ranks;
    }
    if (nodes == 16) gate.hier_speedup_16x8 = flat_des / hier_des;

    // Model-sized: hierarchical vs sharded parameter server.
    const double hier_big_des =
        DesHierAllreduceTime(topo, net, kModelBytes, kSweepSegments);
    const double ps_des = DesPsPushPullTime(topo, net, kModelBytes);
    const double hier_big_model = HierRingAllreduceCost(topo, net, kModelBytes);
    const double ps_model =
        PsPushPullCost(topo, net, kModelBytes, nodes, /*intra_aggregated=*/true);
    model_tbl.AddRow({Fmt(nodes, "%.0f"), Fmt(ranks, "%.0f"),
                      Fmt(hier_big_des * 1e3, "%.2f"),
                      Fmt(ps_des * 1e3, "%.2f"),
                      Fmt(hier_big_model * 1e3, "%.2f"),
                      Fmt(ps_model * 1e3, "%.2f"),
                      ps_des < hier_big_des ? "ps" : "hier"});
    if (ps_des < hier_big_des && gate.ps_crossover_ranks == 0.0) {
      gate.ps_crossover_ranks = ranks;
    }

    // Small tensors: flat ring vs binomial tree.
    const double flat_small_des =
        DesRingAllreduceTime(topo, net, world, kSmallBytes, kSweepSegments);
    const double tree_des = DesTreeAllreduceTime(topo, net, kSmallBytes);
    const double tree_model =
        TreeAllreduceCost(topo, net, ranks, kSmallBytes);
    small_tbl.AddRow({Fmt(nodes, "%.0f"), Fmt(ranks, "%.0f"),
                      Fmt(flat_small_des * 1e3, "%.3f"),
                      Fmt(tree_des * 1e3, "%.3f"),
                      Fmt(tree_model * 1e3, "%.3f"),
                      Fmt(flat_small_des / tree_des, "%.1fx")});
    if (nodes == 16) gate.tree_speedup_16x8 = flat_small_des / tree_des;

    gate.model_agreement_max_err = std::max(
        {gate.model_agreement_max_err, RelErr(flat_model, flat_des),
         RelErr(hier_model, hier_des), RelErr(hier_big_model, hier_big_des),
         RelErr(ps_model, ps_des), RelErr(tree_model, tree_des)});
  }
  bucket.Print();
  model_tbl.Print();
  small_tbl.Print();
  return gate;
}

int WriteScaleJson(const std::string& path, bool quick,
                   const ScaleGate& gate) {
  std::fprintf(stdout,
               "\nscale gate: hier speedup at 16x8 %.2fx, tree speedup"
               " %.1fx, flat->hier crossover at %.0f ranks, hier->ps"
               " crossover at %.0f ranks, model agreement max err %.3f\n",
               gate.hier_speedup_16x8, gate.tree_speedup_16x8,
               gate.flat_hier_crossover_ranks, gate.ps_crossover_ranks,
               gate.model_agreement_max_err);
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "scale gate: cannot write %s\n", path.c_str());
    return 1;
  }
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\n"
                "  \"bench\": \"scale_gate\",\n"
                "  \"quick\": %s,\n"
                "  \"hier_speedup_16x8\": %.4f,\n"
                "  \"tree_speedup_16x8\": %.4f,\n"
                "  \"flat_hier_crossover_ranks\": %.0f,\n"
                "  \"ps_crossover_ranks\": %.0f,\n"
                "  \"model_agreement_max_err\": %.4f\n"
                "}\n",
                quick ? "true" : "false", gate.hier_speedup_16x8,
                gate.tree_speedup_16x8, gate.flat_hier_crossover_ranks,
                gate.ps_crossover_ranks, gate.model_agreement_max_err);
  out << buf;
  out.close();
  std::fprintf(stdout, "scale gate report written to %s\n", path.c_str());
  return 0;
}

}  // namespace
}  // namespace bagua

int main(int argc, char** argv) {
  const bagua::BenchArgs args = bagua::ParseArgs(&argc, argv);
  if (!args.ok) return bagua::BenchArgsError(args);
  bagua::TraceSession trace_session(args);
  // The DES sweep is cheap (closed recurrences, no worker threads), so it
  // runs in full even under --quick; only the epoch study shrinks.
  if (!args.quick) {
    bagua::Run("vgg16");
    bagua::Run("bert-large");
  } else {
    bagua::Run("vgg16");
  }
  const bagua::ScaleGate gate = bagua::SweepCollectives();
  if (!args.scale_json.empty()) {
    return bagua::WriteScaleJson(args.scale_json, args.quick, gate);
  }
  return 0;
}
