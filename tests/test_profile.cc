/**
 * @file
 * Unit tests for the layer profiler and layer-similarity compression.
 */

#include <gtest/gtest.h>

#include "model/cost_model.hh"
#include "profile/profiler.hh"

namespace mobius
{
namespace
{

CostModel
makeCost(const GptConfig &cfg)
{
    static std::vector<ModelDesc> keep;
    keep.push_back(makeGptModel(cfg));
    TrainConfig tc;
    tc.microbatchSize = cfg.microbatchSize;
    return CostModel(keep.back(), rtx3090Ti(), tc);
}

TEST(Profiler, SimilarityMeasuresOncePerClass)
{
    auto cost = makeCost(gpt51b());
    ProfilerConfig cfg;
    cfg.useLayerSimilarity = true;
    auto result = profileModel(cost, cfg);
    // 4 similarity classes -> only 4 layers measured for a 53-layer
    // model.
    EXPECT_EQ(result.profiledLayers, 4);

    cfg.useLayerSimilarity = false;
    auto full = profileModel(cost, cfg);
    EXPECT_EQ(full.profiledLayers, cost.numLayers());
    EXPECT_GT(full.profilingTime, result.profilingTime * 5);
}

TEST(Profiler, SimilarModelsHaveCloseProfilingTime)
{
    // Fig. 12 observation 2: the 8B and 15B models profile in
    // similar time because only distinct layers are measured.
    auto c8 = makeCost(gpt8b());
    auto c15 = makeCost(gpt15b());
    auto p8 = profileModel(c8);
    auto p15 = profileModel(c15);
    EXPECT_LT(p15.profilingTime, p8.profilingTime * 4.0);
    EXPECT_GT(p15.profilingTime, p8.profilingTime * 0.25);
}

} // namespace
} // namespace mobius
