// Multi-level hierarchical composition (§6, H > 2): correctness, loss
// recovery through every tier, and the per-level bandwidth reduction.
#include <gtest/gtest.h>

#include "core/fabric.hpp"
#include "sim/rng.hpp"

namespace switchml::core {
namespace {

std::vector<std::vector<std::int32_t>> updates_for(int n, std::size_t d, std::uint64_t seed) {
  sim::Rng rng = sim::Rng::stream(seed, "tree");
  std::vector<std::vector<std::int32_t>> u(static_cast<std::size_t>(n),
                                           std::vector<std::int32_t>(d));
  for (auto& v : u)
    for (auto& e : v) e = static_cast<std::int32_t>(rng.uniform_int(-5000, 5000));
  return u;
}

std::vector<std::int32_t> sum_of(const std::vector<std::vector<std::int32_t>>& u) {
  std::vector<std::int32_t> s(u.front().size(), 0);
  for (const auto& v : u)
    for (std::size_t i = 0; i < v.size(); ++i) s[i] += v[i];
  return s;
}

TEST(Tree, ThreeLevelAggregationIsExact) {
  // root -> 2 internal switches -> 2 racks each -> 3 workers per rack.
  FabricParams params;
  params.pool_size = 64;
  Fabric tree(FabricConfig(params, TreeSpec{3, 2, 3}));
  EXPECT_EQ(tree.n_workers(), 2 * 2 * 3);
  EXPECT_EQ(tree.n_switches(), 1u + 2u + 4u);

  auto updates = updates_for(tree.n_workers(), 4096, 1);
  auto r = tree.reduce_i32(updates);
  const auto expect = sum_of(updates);
  for (int w = 0; w < tree.n_workers(); ++w)
    ASSERT_EQ(r.outputs[static_cast<std::size_t>(w)], expect) << w;
}

TEST(Tree, FourLevelAggregationIsExact) {
  FabricParams params;
  params.pool_size = 8;
  Fabric tree(FabricConfig(params, TreeSpec{4, 2, 2}));
  EXPECT_EQ(tree.n_workers(), 2 * 2 * 2 * 2); // 2^3 racks x 2 workers
  auto updates = updates_for(tree.n_workers(), 1024, 2);
  auto r = tree.reduce_i32(updates);
  EXPECT_EQ(r.outputs[5], sum_of(updates));
}

TEST(Tree, TwoLevelMatchesHierarchySpec) {
  FabricParams params;
  params.pool_size = 64;
  Fabric tree(FabricConfig(params, TreeSpec{2, 3, 2})); // root with 3 bottom switches
  EXPECT_EQ(tree.n_workers(), 6);
  auto updates = updates_for(6, 2048, 3);
  auto r = tree.reduce_i32(updates);
  EXPECT_EQ(r.outputs[0], sum_of(updates));
}

TEST(Tree, SurvivesLossAtEveryTier) {
  FabricParams params;
  params.pool_size = 8;
  params.loss_prob = 0.02; // every link, including both switch tiers
  Fabric tree(FabricConfig(params, TreeSpec{3, 2, 2}));
  auto updates = updates_for(tree.n_workers(), 4096, 4);
  auto r = tree.reduce_i32(updates);
  EXPECT_EQ(r.outputs[0], sum_of(updates));
}

TEST(Tree, EveryTierReducesBandwidth) {
  FabricParams params;
  params.pool_size = 64;
  params.timing_only = true;
  Fabric tree(FabricConfig(params, TreeSpec{3, 2, 4}));
  const std::uint64_t elems = 32 * 512;
  tree.reduce_timing(elems);
  const std::uint64_t chunks = elems / 32;
  // Root (switch 0) completes every chunk once; each internal/bottom switch
  // forwards exactly one partial per chunk upstream.
  EXPECT_EQ(tree.root().counters().completions, chunks);
  for (std::size_t s = 1; s < tree.n_switches(); ++s)
    EXPECT_EQ(tree.switch_at(s).counters().upstream_partials, chunks) << s;
}

TEST(Tree, RejectsDegenerateShapes) {
  EXPECT_THROW(Fabric(FabricConfig(FabricParams{}, TreeSpec{1, 2, 4})), std::invalid_argument);
}

} // namespace
} // namespace switchml::core
