// Tier-2 property test: the .bench cache round-trip is invisible to the
// tables. Table 2 regenerated from an empty cache directory (every circuit
// synthesized and retimed in this process) must equal the same table
// reloaded from the cache that run wrote, the wall-clock column aside.
#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "harness/experiments.h"
#include "harness/suite.h"

namespace satpg {
namespace {

// The rendered table with its wall_s column (the sixth field) removed.
std::string without_wall_column(const Table& t) {
  std::istringstream in(t.to_string());
  std::ostringstream out;
  for (std::string line; std::getline(in, line);) {
    std::istringstream fields(line);
    std::string f;
    for (int i = 0; fields >> f; ++i)
      if (i != 5) out << f << ' ';
    out << '\n';
  }
  return out.str();
}

TEST(SuiteRoundTripTest, FreshAndCachedTable2RowsAgree) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "suite_roundtrip_cache";
  std::filesystem::remove_all(dir);
  SuiteOptions so;
  so.cache_dir = dir.string();
  so.fsm_scale = 0.3;
  so.seed = 3;
  ExperimentOptions eo;
  eo.budget_scale = 0.3;
  eo.seed = 3;
  eo.num_threads = 2;

  Suite fresh(so);
  const std::string built = without_wall_column(run_table2_hitec(fresh, eo));
  std::size_t cached_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir))
    cached_files += entry.path().extension() == ".bench" ? 1 : 0;
  ASSERT_EQ(cached_files, 2 * table2_specs().size());

  Suite cached(so);
  const std::string loaded = without_wall_column(run_table2_hitec(cached, eo));
  EXPECT_EQ(built, loaded);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace satpg
