// Sharded sweep fabric tests: the shard planner (disjoint cover,
// heaviest-first balance, determinism), shard= parsing, and the
// end-to-end chunk contract through the real CLI — merge of N shards is
// byte-identical to the unsharded sweep (CSV and metrics) for
// N in {1, 2, 4}, a complete chunk is a no-op skip on rerun, and
// corrupted / foreign / missing chunks are detected, not merged, and a
// sweep's output, chunks and fingerprints do not depend on jobs=N.  A
// defect matrix damages one chunk in each way the reader checks for, and
// escaped assignments round-trip through the manifest and sidecar text.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/error.hpp"
#include "core/chunk.hpp"
#include "core/cli.hpp"
#include "core/scenario.hpp"
#include "core/sweep.hpp"

namespace pimsim::core {
namespace {

namespace fs = std::filesystem;

TEST(ParseShard, AcceptsValidForms) {
  EXPECT_EQ(parse_shard("0/1").index, 0u);
  EXPECT_EQ(parse_shard("0/1").count, 1u);
  EXPECT_EQ(parse_shard("3/4").index, 3u);
  EXPECT_EQ(parse_shard("3/4").count, 4u);
  EXPECT_EQ(parse_shard("12/100").index, 12u);
}

TEST(ParseShard, RejectsMalformedNamingTheValidForm) {
  for (const char* bad : {"", "2", "a/b", "1/", "/4", "4/4", "5/4", "0/0",
                          "-1/4", "1/-4", "1.5/4", "1 /4", "0x1/4"}) {
    try {
      (void)parse_shard(bad);
      FAIL() << "expected InvalidArgument for '" << bad << "'";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shard=i/N"), std::string::npos) << bad;
      EXPECT_NE(what.find("valid form"), std::string::npos) << bad;
    }
  }
}

TEST(PlanShards, DisjointCoverAndRoundRobinOnEqualWeights) {
  const std::vector<double> weights(10, 1.0);
  const auto plan = plan_shards(weights, 4);
  ASSERT_EQ(plan.size(), 10u);
  std::vector<std::size_t> sizes(4, 0);
  for (const std::size_t s : plan) {
    ASSERT_LT(s, 4u);  // every point owned by exactly one valid shard
    ++sizes[s];
  }
  EXPECT_EQ(std::accumulate(sizes.begin(), sizes.end(), std::size_t{0}), 10u);
  // Equal weights degrade to round-robin: bin sizes differ by at most 1.
  for (const std::size_t n : sizes) {
    EXPECT_GE(n, 2u);
    EXPECT_LE(n, 3u);
  }
}

TEST(PlanShards, HeaviestFirstBalancesSkewedWeights) {
  // One dominant point plus many small ones: LPT puts the heavy point
  // alone on one shard and spreads the rest over the other.
  const std::vector<double> weights = {100, 1, 1, 1, 1, 1, 1, 1};
  const auto plan = plan_shards(weights, 2);
  std::vector<double> load(2, 0.0);
  for (std::size_t i = 0; i < weights.size(); ++i) load[plan[i]] += weights[i];
  // The seven light points all land opposite the heavy one.
  for (std::size_t i = 1; i < weights.size(); ++i) {
    EXPECT_NE(plan[i], plan[0]) << "light point " << i << " shares the "
                                   "heavy shard";
  }
}

TEST(PlanShards, PureFunctionOfInputs) {
  const std::vector<double> weights = {3, 1, 4, 1, 5, 9, 2, 6};
  EXPECT_EQ(plan_shards(weights, 3), plan_shards(weights, 3));
  // Degenerate weights (zero, negative, NaN) still produce a full cover.
  const std::vector<double> weird = {0.0, -1.0,
                                     std::numeric_limits<double>::quiet_NaN(),
                                     1.0};
  const auto plan = plan_shards(weird, 2);
  for (const std::size_t s : plan) EXPECT_LT(s, 2u);
}

// --- end-to-end through the CLI ------------------------------------------

int run_cli(std::vector<std::string> args) {
  args.insert(args.begin(), "pimsim");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return cli_main(static_cast<int>(argv.size()), argv.data());
}

std::string slurp(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Fixture owning a per-process scratch dir under the system temp dir
/// with a small 4-point memory_contention grid.
class ShardEndToEnd : public ::testing::Test {
 protected:
  void SetUp() override {
    fs::remove_all(root_);
    fs::create_directories(root_);
    std::ofstream cfg(root_ / "grid.cfg");
    cfg << "ops=20000\nnodes=2\nbanks=1,2\nseed=3,5\n";  // 2x2 grid
    cfg.close();
    ASSERT_EQ(run_cli({"sweep", "memory_contention", config(), "format=csv",
                       "out=" + (root_ / "unsharded.csv").string(),
                       "metrics=" + (root_ / "unsharded_metrics.json").string()}),
              0);
    unsharded_ = slurp(root_ / "unsharded.csv");
    ASSERT_FALSE(unsharded_.empty());
  }

  [[nodiscard]] std::string config() const {
    return "config=" + (root_ / "grid.cfg").string();
  }

  int run_shard(std::size_t i, std::size_t n, const std::string& dir) {
    return run_cli({"sweep", "memory_contention", config(), "format=csv",
                    "shard=" + std::to_string(i) + "/" + std::to_string(n),
                    "out=" + (root_ / dir).string()});
  }

  int merge(const std::string& dir, const std::string& out,
            const std::string& metrics = "") {
    std::vector<std::string> args{"merge", (root_ / dir).string(),
                                  "out=" + (root_ / out).string()};
    if (!metrics.empty()) args.push_back("metrics=" + (root_ / metrics).string());
    return run_cli(args);
  }

  void TearDown() override { fs::remove_all(root_); }

  const fs::path root_ =
      fs::temp_directory_path() /
      ("pimsim_test_shard_" + std::to_string(::getpid()));
  std::string unsharded_;
};

TEST_F(ShardEndToEnd, MergeIsByteIdenticalToUnshardedForAnyShardCount) {
  const std::string metrics_ref = slurp(root_ / "unsharded_metrics.json");
  for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const std::string dir = "chunks" + std::to_string(n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(run_shard(i, n, dir), 0) << "shard " << i << "/" << n;
    }
    ASSERT_EQ(merge(dir, "merged.csv", "merged_metrics.json"), 0) << n;
    EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_) << "N=" << n;
    EXPECT_EQ(slurp(root_ / "merged_metrics.json"), metrics_ref) << "N=" << n;
  }
}

TEST_F(ShardEndToEnd, RerunOfCompleteShardIsANoOpSkip) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  const std::string csv = slurp(root_ / "chunks" / "chunk-0-of-2.csv");
  const std::string sidecar = slurp(root_ / "chunks" / "chunk-0-of-2.json");
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);  // resume: cache hit
  EXPECT_EQ(slurp(root_ / "chunks" / "chunk-0-of-2.csv"), csv);
  EXPECT_EQ(slurp(root_ / "chunks" / "chunk-0-of-2.json"), sidecar);
}

TEST_F(ShardEndToEnd, DeletedChunkIsRecomputedWithoutTouchingOthers) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  const std::string other = slurp(root_ / "chunks" / "chunk-1-of-2.csv");
  fs::remove(root_ / "chunks" / "chunk-0-of-2.csv");
  fs::remove(root_ / "chunks" / "chunk-0-of-2.json");
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);  // recomputes only shard 0
  EXPECT_EQ(slurp(root_ / "chunks" / "chunk-1-of-2.csv"), other);
  ASSERT_EQ(merge("chunks", "merged.csv"), 0);
  EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_);
}

TEST_F(ShardEndToEnd, CorruptedChunkIsDetectedThenRecomputed) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  {
    std::ofstream tamper(root_ / "chunks" / "chunk-1-of-2.csv",
                         std::ios::app | std::ios::binary);
    tamper << "X";  // divergent bytes: fingerprint check must fire
  }
  EXPECT_NE(merge("chunks", "merged.csv"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);  // invalid chunk -> recompute
  ASSERT_EQ(merge("chunks", "merged.csv"), 0);
  EXPECT_EQ(slurp(root_ / "merged.csv"), unsharded_);
}

TEST_F(ShardEndToEnd, MissingChunkAndForeignContentsAreRejected) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  EXPECT_NE(merge("chunks", "merged.csv"), 0);  // shard 1 missing

  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  std::ofstream junk(root_ / "chunks" / "chunk-weird.csv");
  junk << "?";
  junk.close();
  EXPECT_NE(merge("chunks", "merged.csv"), 0);  // unknown chunk-* name
  fs::remove(root_ / "chunks" / "chunk-weird.csv");
  EXPECT_EQ(merge("chunks", "merged.csv"), 0);
}

TEST_F(ShardEndToEnd, DifferentGridIntoSameDirIsRejected) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  // Same directory, different grid (ops changed): manifest mismatch.
  EXPECT_NE(run_cli({"sweep", "memory_contention", config(), "format=csv",
                     "ops=30000", "shard=0/2",
                     "out=" + (root_ / "chunks").string()}),
            0);
  // Different shard count is a different manifest too.
  EXPECT_NE(run_shard(0, 3, "chunks"), 0);
}

TEST_F(ShardEndToEnd, NonIntegralOrHugeManifestCountsAreRejected) {
  ASSERT_EQ(run_shard(0, 2, "chunks"), 0);
  ASSERT_EQ(run_shard(1, 2, "chunks"), 0);
  const fs::path manifest = root_ / "chunks" / "manifest.json";
  const std::string text = slurp(manifest);
  const std::string field = "\"shards\": 2,";
  ASSERT_NE(text.find(field), std::string::npos);
  // A fraction must not truncate to the 2 shards on disk, and a count
  // past size_t's range must not reach an undefined double cast.
  for (const char* bad : {"2.7", "1e30"}) {
    std::string edited = text;
    edited.replace(edited.find(field), field.size(),
                   "\"shards\": " + std::string(bad) + ",");
    std::ofstream(manifest, std::ios::binary | std::ios::trunc) << edited;
    EXPECT_NE(merge("chunks", "merged.csv"), 0) << bad;
  }
  std::ofstream(manifest, std::ios::binary | std::ios::trunc) << text;
  EXPECT_EQ(merge("chunks", "merged.csv"), 0);
}

/// One way to damage a chunk: the file it changes, how, and the defect
/// read_chunk must then name.
struct Defect {
  std::string name;
  bool in_csv = false;  ///< the block file, else the sidecar
  std::function<void(std::string&)> damage;
  std::string message;
};

void replace_first(std::string& text, const std::string& from,
                   const std::string& to) {
  const std::size_t at = text.find(from);
  ASSERT_NE(at, std::string::npos) << from;
  text.replace(at, from.size(), to);
}

TEST_F(ShardEndToEnd, EveryChunkDefectIsNamedRejectedAndRecomputed) {
  // Six points, three per shard, so shard 1's chunk has a middle block.
  std::ofstream(root_ / "six.cfg")
      << "ops=20000\nnodes=2\nbanks=1,2\nseed=3,5,7\nqueue=0,1\n";
  const std::string cfg = "config=" + (root_ / "six.cfg").string();
  const fs::path dir = root_ / "six";
  const auto sweep_shard = [&](const char* shard) {
    return run_cli({"sweep", "memory_contention", cfg, "format=csv",
                    std::string("shard=") + shard, "out=" + dir.string()});
  };
  ASSERT_EQ(run_cli({"sweep", "memory_contention", cfg, "format=csv",
                     "out=" + (root_ / "six.csv").string()}),
            0);
  ASSERT_EQ(sweep_shard("0/2"), 0);
  ASSERT_EQ(sweep_shard("1/2"), 0);
  const std::string unsharded = slurp(root_ / "six.csv");
  const fs::path side = dir / "chunk-1-of-2.json";
  const fs::path csv = dir / "chunk-1-of-2.csv";
  const std::string side_ok = slurp(side);
  const std::string csv_ok = slurp(csv);
  const GridSpec grid = read_manifest(dir.string());
  const ChunkData chunk = read_chunk(dir.string(), grid, 1);
  ASSERT_EQ(chunk.points.size(), 3u);
  ASSERT_FALSE(chunk.metrics.empty());
  const std::size_t middle =
      chunk.points[0].block.size() + chunk.points[1].block.size() / 2;
  const std::string middle_point = std::to_string(chunk.points[1].point);
  std::size_t foreign = 0;  // a point shard 0 owns
  while (grid.shard_of[foreign] == 1) ++foreign;
  // Offset of the first metrics snapshot's opening quote.
  const auto snapshot = [](const std::string& s) {
    return s.find('"', s.find('[', s.find("\"metrics\"")));
  };

  const std::vector<Defect> defects = {
      {"truncated CSV", true, [](std::string& c) { c.pop_back(); },
       "truncated"},
      {"one trailing byte", true, [](std::string& c) { c += 'X'; },
       "trailing bytes beyond the recorded points"},
      {"flipped byte in the middle block", true,
       [&](std::string& c) { c[middle] ^= 0x01; },
       "point " + middle_point + " bytes do not match the recorded fingerprint"},
      {"wrong schema", false,
       [](std::string& s) {
         replace_first(s, "\"pimsim-chunk-v1\"", "\"pimsim-chunk-v9\"");
       },
       "unknown schema"},
      {"wrong grid_fingerprint", false,
       [](std::string& s) {
         const std::size_t end =
             s.find('"', s.find("\"0x", s.find("\"grid_fingerprint\"")) + 1);
         s[end - 1] = s[end - 1] == '0' ? '1' : '0';
       },
       "grid fingerprint mismatch"},
      {"shard id differs from the filename", false,
       [](std::string& s) { replace_first(s, "\"shard\": 1,", "\"shard\": 0,"); },
       "shard id disagrees with filename"},
      {"point line deleted", false,
       [](std::string& s) {
         const std::size_t begin = s.rfind('\n', s.find("{\"point\":")) + 1;
         s.erase(begin, s.find('\n', begin) + 1 - begin);
       },
       "point set diverges from the manifest's shard plan"},
      {"point outside the shard plan", false,
       [&](std::string& s) {
         replace_first(s, "{\"point\": " + middle_point + ",",
                       "{\"point\": " + std::to_string(foreign) + ",");
       },
       "point set diverges from the manifest's shard plan"},
      {"assignment differs from the manifest", false,
       [](std::string& s) {
         replace_first(s, "\"assignment\": \"", "\"assignment\": \"x");
       },
       "point assignment differs from the manifest"},
      {"odd-length metrics hex", false,
       [&](std::string& s) { s.insert(snapshot(s) + 1, "0"); },
       "odd-length metrics snapshot hex"},
      {"non-hex metrics digit", false,
       [&](std::string& s) { s[snapshot(s) + 1] = 'g'; },
       "metrics snapshot is not valid hex"},
      {"unterminated metrics snapshot", false,
       [](std::string& s) { s.erase(s.rfind('"'), 1); },
       "unterminated metrics snapshot"},
      {"missing metrics", false,
       [](std::string& s) { replace_first(s, "\"metrics\"", "\"metricz\""); },
       "missing field \"metrics\""},
  };
  for (const Defect& d : defects) {
    SCOPED_TRACE(d.name);
    const fs::path& target = d.in_csv ? csv : side;
    std::string bytes = d.in_csv ? csv_ok : side_ok;
    d.damage(bytes);
    std::ofstream(target, std::ios::binary | std::ios::trunc) << bytes;
    try {
      (void)read_chunk(dir.string(), grid, 1);
      ADD_FAILURE() << "read_chunk accepted the damaged chunk";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + target.string() + "'"), std::string::npos)
          << what;
      EXPECT_NE(what.find(d.message), std::string::npos) << what;
    } catch (const ConfigError& e) {
      ADD_FAILURE() << "not an InvalidArgument: " << e.what();
    }
    EXPECT_NE(merge("six", "six_merged.csv"), 0);
    ASSERT_EQ(sweep_shard("1/2"), 0);  // the resume check recomputes
    EXPECT_EQ(slurp(csv), csv_ok);
    EXPECT_NO_THROW((void)read_chunk(dir.string(), grid, 1));
    ASSERT_EQ(merge("six", "six_merged.csv"), 0);
    EXPECT_EQ(slurp(root_ / "six_merged.csv"), unsharded);
  }
}

TEST(ChunkText, EscapedAssignmentsRoundTripThroughManifestAndSidecar) {
  // json_escape writes a value ending in a backslash as `"tag=a\\"`: the
  // readers must step over escape pairs, not stop at (or skip) that quote.
  const fs::path dir = fs::temp_directory_path() /
                       ("pimsim_test_chunk_text_" + std::to_string(::getpid()));
  fs::remove_all(dir);
  GridSpec grid;
  grid.scenario = "memory_contention";
  grid.format = "csv";
  grid.shards = 1;
  grid.grid_fingerprint = 0x0123456789abcdefULL;
  grid.assignments = {"tag=a\\", "quote=\"q\"", "path=C:\\dir\\ x=\\\"",
                      "tab=\t nl=\n", "plain=1", "\\"};
  grid.shard_of.assign(grid.assignments.size(), 0);
  write_or_check_manifest(dir.string(), grid);
  const GridSpec back = read_manifest(dir.string());
  EXPECT_EQ(back.scenario, grid.scenario);
  EXPECT_EQ(back.format, grid.format);
  EXPECT_EQ(back.grid_fingerprint, grid.grid_fingerprint);
  EXPECT_EQ(back.assignments, grid.assignments);
  EXPECT_EQ(back.shard_of, grid.shard_of);

  std::vector<ChunkPoint> points;
  for (std::size_t i = 0; i < grid.assignments.size(); ++i) {
    ChunkPoint p;
    p.point = i;
    p.assignment = grid.assignments[i];
    p.block = "# " + p.assignment + "\nx\n" + std::to_string(i) + "\n";
    p.fingerprint = data_fingerprint(p.block);
    points.push_back(p);
  }
  const std::vector<std::string> metrics = {std::string("\x00\x7f\xff", 3), ""};
  write_chunk(dir.string(), grid, 0, points, metrics, 0.25);
  EXPECT_TRUE(chunk_complete(dir.string(), back, 0));
  const ChunkData data = read_chunk(dir.string(), back, 0);
  ASSERT_EQ(data.points.size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(data.points[i].assignment, points[i].assignment) << i;
    EXPECT_EQ(data.points[i].block, points[i].block) << i;
    EXPECT_EQ(data.points[i].fingerprint, points[i].fingerprint) << i;
  }
  EXPECT_EQ(data.metrics, metrics);
  EXPECT_EQ(data.wall_seconds, 0.25);
  fs::remove_all(dir);
}

/// Everything one sweep variant writes at a given jobs=N: the unsharded
/// output, the merge of a 2-way sharded run, each chunk's block bytes and
/// each sidecar's per-unit fingerprints.
struct SweepBytes {
  std::string unsharded;
  std::string merged;
  std::vector<std::string> chunk_blocks;
  std::vector<std::uint64_t> fingerprints;
};

TEST_F(ShardEndToEnd, OutputIsIndependentOfJobsPlainAndReplicated) {
  // Every point is rendered (or serialized) and fingerprinted on the
  // worker that ran it; none of that may depend on the worker count.
  const std::vector<std::vector<std::string>> variants = {
      {"format=csv"}, {"format=text"}, {"format=csv", "reps=1,3"}};
  for (std::size_t v = 0; v < variants.size(); ++v) {
    SweepBytes at[2];
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{4}}) {
      SweepBytes& out = at[jobs == 1 ? 0 : 1];
      const std::string tag = std::to_string(v) + "_j" + std::to_string(jobs);
      std::vector<std::string> base{"sweep", "memory_contention", config(),
                                    "jobs=" + std::to_string(jobs)};
      base.insert(base.end(), variants[v].begin(), variants[v].end());

      std::vector<std::string> args = base;
      args.push_back("out=" + (root_ / ("un" + tag)).string());
      ASSERT_EQ(run_cli(args), 0) << tag;
      out.unsharded = slurp(root_ / ("un" + tag));

      const fs::path dir = root_ / ("chunks" + tag);
      for (std::size_t i = 0; i < 2; ++i) {
        args = base;
        args.push_back("shard=" + std::to_string(i) + "/2");
        args.push_back("out=" + dir.string());
        ASSERT_EQ(run_cli(args), 0) << tag << " shard " << i;
      }
      ASSERT_EQ(merge("chunks" + tag, "merged" + tag), 0) << tag;
      out.merged = slurp(root_ / ("merged" + tag));

      const GridSpec grid = read_manifest(dir.string());
      EXPECT_EQ(grid.replicated, variants[v].size() > 1) << tag;
      for (std::size_t i = 0; i < 2; ++i) {
        out.chunk_blocks.push_back(slurp(dir / (chunk_basename(i, 2) + ".csv")));
        for (const ChunkPoint& p : read_chunk(dir.string(), grid, i).points) {
          out.fingerprints.push_back(p.fingerprint);
        }
      }
    }
    EXPECT_FALSE(at[0].unsharded.empty()) << v;
    EXPECT_EQ(at[0].merged, at[0].unsharded) << v;
    EXPECT_EQ(at[1].unsharded, at[0].unsharded) << v;
    EXPECT_EQ(at[1].merged, at[0].merged) << v;
    EXPECT_EQ(at[1].chunk_blocks, at[0].chunk_blocks) << v;
    EXPECT_EQ(at[1].fingerprints, at[0].fingerprints) << v;
  }
}

TEST_F(ShardEndToEnd, ShardWithoutOutDirAndBadDirAreRejected) {
  EXPECT_NE(run_cli({"sweep", "memory_contention", config(), "shard=0/2"}),
            0);  // shard= requires out=DIR
  EXPECT_NE(run_cli({"merge", (root_ / "nonexistent").string()}), 0);
  EXPECT_NE(run_cli({"merge", root_.string()}), 0);  // no manifest.json
}

}  // namespace
}  // namespace pimsim::core
