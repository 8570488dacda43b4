// Smoke-runs the bench binaries in --quick mode so a broken bench (or a
// kernel gate that stops producing its JSON contract) fails ctest instead
// of being discovered at paper-reproduction time. BAGUA_BENCH_DIR is
// injected by tests/CMakeLists.txt as the bench output directory.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace bagua {
namespace {

#ifndef BAGUA_BENCH_DIR
#error "tests/CMakeLists.txt must define BAGUA_BENCH_DIR"
#endif

std::string BenchPath(const char* name) {
  return std::string(BAGUA_BENCH_DIR) + "/" + name;
}

std::string TempJsonPath() {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  return std::string(dir) + "/bagua_bench_kernels_smoke.json";
}

int RunCommand(const std::string& cmd) {
  const int rc = std::system(cmd.c_str());
  return rc;
}

// Pulls the number out of a flat `"key": value` line; nan on miss.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return std::nan("");
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(BenchSmokeTest, KernelGateWritesJsonContract) {
  const std::string json_path = TempJsonPath();
  std::remove(json_path.c_str());
  const std::string cmd = BenchPath("bench_micro_primitives") +
                          " --kernels-json=" + json_path + " --quick";
  ASSERT_EQ(RunCommand(cmd), 0) << cmd;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "kernel gate did not write " << json_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // The exact keys scripts/perf_gate.sh greps for.
  for (const char* key :
       {"speedup_64", "speedup_128", "speedup_256", "ref_ms_256",
        "blocked_ms_256", "max_abs_diff_256"}) {
    EXPECT_FALSE(std::isnan(JsonNumber(json, key))) << "missing " << key;
  }
  // Report-only rows at the trainers' GEMM shapes.
  for (const char* key :
       {"gflops_gemm_128x1024x1024", "gflops_gemm_ta_1024x128x1024",
        "gflops_gemm_tb_128x1024x1024", "gflops_gemm_tb_16x512x512"}) {
    EXPECT_GT(JsonNumber(json, key), 0.0) << "missing " << key;
  }
  // Loose bound here (the hard >= 2.0 gate lives in scripts/perf_gate.sh):
  // the blocked kernel being outright slower at 256^3 means the build
  // regressed badly enough to fail the smoke test too.
  EXPECT_GT(JsonNumber(json, "speedup_256"), 1.0);
  // Differential correctness rides along in the report.
  EXPECT_LT(JsonNumber(json, "max_abs_diff_256"), 1e-3);
  std::remove(json_path.c_str());
}

TEST(BenchSmokeTest, Table4QuickRuns) {
  const std::string cmd =
      BenchPath("bench_table4_epoch_time") + " --quick > /dev/null";
  EXPECT_EQ(RunCommand(cmd), 0) << cmd;
}

TEST(BenchSmokeTest, ScaleGateWritesJsonContract) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  const std::string json_path = std::string(dir) + "/bagua_scale_smoke.json";
  std::remove(json_path.c_str());
  const std::string cmd = BenchPath("bench_scalability") + " --quick" +
                          " --scale-json=" + json_path + " > /dev/null";
  ASSERT_EQ(RunCommand(cmd), 0) << cmd;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "scale gate did not write " << json_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // The exact keys scripts/scale_gate.sh greps for.
  for (const char* key :
       {"hier_speedup_16x8", "tree_speedup_16x8", "flat_hier_crossover_ranks",
        "ps_crossover_ranks", "model_agreement_max_err"}) {
    EXPECT_FALSE(std::isnan(JsonNumber(json, key))) << "missing " << key;
  }
  // Loose bounds (the hard gate lives in scripts/scale_gate.sh): the
  // hierarchical split winning at all at 16x8, and the PS crossover
  // landing at paper scale, are structural properties of the sweep.
  EXPECT_GT(JsonNumber(json, "hier_speedup_16x8"), 1.0);
  EXPECT_GE(JsonNumber(json, "ps_crossover_ranks"), 512.0);
  std::remove(json_path.c_str());
}

TEST(BenchSmokeTest, FlGateWritesJsonContract) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  const std::string json_path = std::string(dir) + "/bagua_fl_smoke.json";
  std::remove(json_path.c_str());
  const std::string cmd = BenchPath("bench_fl") + " --quick" +
                          " --fl-json=" + json_path + " > /dev/null";
  ASSERT_EQ(RunCommand(cmd), 0) << cmd;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "fl gate did not write " << json_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // The exact keys scripts/fl_gate.sh greps for.
  for (const char* key :
       {"bitwise_threads", "bitwise_order", "bitwise_naive", "stats_identical",
        "pool_misses_steady", "throughput_ratio", "model_hash"}) {
    EXPECT_FALSE(std::isnan(JsonNumber(json, key))) << "missing " << key;
  }
  // Correctness keys are not allowed to be flaky, so the smoke test holds
  // them to the same bar as scripts/fl_gate.sh; only the timing ratio's
  // threshold stays in the script.
  EXPECT_EQ(JsonNumber(json, "bitwise_threads"), 1.0);
  EXPECT_EQ(JsonNumber(json, "bitwise_order"), 1.0);
  EXPECT_EQ(JsonNumber(json, "bitwise_naive"), 1.0);
  EXPECT_EQ(JsonNumber(json, "stats_identical"), 1.0);
  EXPECT_EQ(JsonNumber(json, "pool_misses_steady"), 0.0);
  EXPECT_GT(JsonNumber(json, "throughput_ratio"), 0.0);
  std::remove(json_path.c_str());
}

TEST(BenchSmokeTest, PrecisionGateWritesJsonContract) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || *dir == '\0') dir = "/tmp";
  const std::string json_path =
      std::string(dir) + "/bagua_precision_smoke.json";
  std::remove(json_path.c_str());
  const std::string cmd = BenchPath("bench_micro_primitives") + " --quick" +
                          " --precision-json=" + json_path + " > /dev/null";
  ASSERT_EQ(RunCommand(cmd), 0) << cmd;

  std::ifstream in(json_path);
  ASSERT_TRUE(in.good()) << "precision gate did not write " << json_path;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();

  // The exact keys scripts/precision_gate.sh greps for.
  for (const char* key :
       {"convert_bf16_speedup", "convert_fp16_speedup", "convert_bf16_gbps",
        "convert_matches_reference", "wire_fp32_ms", "wire_bf16_ms",
        "wire_speedup", "train_bitwise_identical", "arena_misses_steady",
        "pool_misses_steady"}) {
    EXPECT_FALSE(std::isnan(JsonNumber(json, key))) << "missing " << key;
  }
  // Correctness keys are held to the script's bar here too; the timing
  // thresholds (>= 2x converts, >= 1.4x wire) stay in
  // scripts/precision_gate.sh where retries absorb shared-box noise.
  EXPECT_EQ(JsonNumber(json, "convert_matches_reference"), 1.0);
  EXPECT_EQ(JsonNumber(json, "train_bitwise_identical"), 1.0);
  EXPECT_EQ(JsonNumber(json, "arena_misses_steady"), 0.0);
  EXPECT_EQ(JsonNumber(json, "pool_misses_steady"), 0.0);
  EXPECT_GT(JsonNumber(json, "wire_speedup"), 0.0);
  std::remove(json_path.c_str());
}

TEST(BenchSmokeTest, BadFlagIsRejected) {
  const std::string cmd = BenchPath("bench_micro_primitives") +
                          " --kernels-json= 2> /dev/null";
  EXPECT_NE(RunCommand(cmd), 0) << "empty --kernels-json= must be an error";
}

}  // namespace
}  // namespace bagua
