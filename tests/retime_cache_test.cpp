// Golden test for the retiming cache contract: every committed
// circuits_cache/<name>.re*_s<seed>_x<scale>.bench must be exactly what
// retime_to_dff_target produces from its cached parent with the target the
// suite uses (Table 2's retimed #DFF, or the Table 7 ladder value, scaled
// and at least one more than the parent's). SATPG_CACHE_DIR is injected by
// CMake and points at the committed cache.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <regex>
#include <sstream>
#include <string>

#include "harness/suite.h"
#include "netlist/bench_io.h"
#include "retime/retime.h"
#include "synth/library.h"

namespace satpg {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream is(path);
  std::stringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

// Parent name and unscaled #DFF target of a suite retimed circuit, or an
// empty parent for names outside the suite.
std::pair<std::string, int> retime_target(const std::string& name) {
  for (const auto& spec : table2_specs())
    if (name == spec.retimed_name()) return {spec.name(), spec.paper_re_dffs};
  for (const auto& [suffix, dffs] : table7_ladder())
    if (name == "s510.jo.sr" + suffix) return {"s510.jo.sr", dffs};
  return {"", 0};
}

TEST(RetimeCacheTest, CommittedRetimedCircuitsAreReproducedByteForByte) {
  const std::filesystem::path cache(SATPG_CACHE_DIR);
  const std::regex file_re(R"((.+\.re[^_]*)_s(\d+)_x(\d+)\.bench)");
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(cache))
    files.push_back(entry.path());
  std::sort(files.begin(), files.end());

  int checked = 0;
  for (const auto& path : files) {
    std::smatch m;
    const std::string file = path.filename().string();
    if (!std::regex_match(file, m, file_re)) continue;
    SCOPED_TRACE(file);
    const std::string name = m[1];
    const auto [parent, dffs] = retime_target(name);
    ASSERT_FALSE(parent.empty()) << "not a suite retimed circuit";
    const std::string tag = "_s" + m[2].str() + "_x" + m[3].str() + ".bench";
    const std::filesystem::path parent_path = cache / (parent + tag);
    if (!std::filesystem::exists(parent_path)) continue;

    // Load the parent exactly as Suite does: read, then re-annotate.
    std::ifstream is(parent_path);
    Netlist orig = read_bench(is, parent);
    annotate_library(orig);
    const double scale = std::stoi(m[3]) / 100.0;
    const std::size_t target = std::max<std::size_t>(
        orig.num_dffs() + 1, static_cast<std::size_t>(dffs * scale + 0.5));
    const RetimeResult rt = retime_to_dff_target(orig, target, name);
    EXPECT_EQ(write_bench_string(rt.netlist), slurp(path));
    ++checked;
  }
  EXPECT_GE(checked, 39);
}

}  // namespace
}  // namespace satpg
