/**
 * @file
 * Related-work comparison (§5): Megatron-style tensor parallelism
 * with offloaded optimizer vs Mobius on the commodity server, across
 * microbatch sizes.
 *
 * Expected shape (the §5 argument): pipeline parallelism moves less
 * data than model parallelism — TP's per-layer activation
 * all-reduces grow with the batch while Mobius's weight streaming is
 * constant, so TP falls behind as the microbatch grows; and TP's
 * resident weight shards cap the trainable scale (51B OOMs on 24 GB
 * GPUs, which Mobius trains).
 */

#include "bench_util.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    bench::ProfScope prof(argc, argv);
    bench::section("Related work: tensor parallelism vs Mobius "
                   "(4x 3090-Ti, Topo 2+2)");
    Server server = makeCommodityServer({2, 2});

    for (const auto &cfg : {gpt8b(), gpt15b()}) {
        std::printf("\n--- %s ---\n", cfg.name.c_str());
        std::printf("%4s %12s %16s %12s %14s %14s\n", "mbs",
                    "Mobius", "TensorParallel", "TP/Mobius",
                    "Mobius traffic", "TP traffic");
        for (int mbs : {1, 2, 4, 8}) {
            Workload work(cfg, server, mbs);
            MobiusPlan plan = planMobius(server, work.cost());
            StepStats mob =
                runMobiusStepEx(server, work.cost(), plan).stats;
            try {
                StepStats tp =
                    runTensorParallelStep(server, work.cost()).stats;
                std::printf(
                    "%4d %11.2fs %15.2fs %12.2f %14s %14s\n", mbs,
                    mob.stepTime, tp.stepTime,
                    tp.stepTime / mob.stepTime,
                    formatBytes(mob.traffic.totalBytes()).c_str(),
                    formatBytes(tp.traffic.totalBytes()).c_str());
            } catch (const FatalError &) {
                std::printf("%4d %11.2fs %15s\n", mbs,
                            mob.stepTime, "OOM");
            }
        }
    }

    std::printf("\nScale limit:\n");
    Workload w51(gpt51b(), server);
    try {
        runTensorParallelStep(server, w51.cost());
        std::printf("  51B TP: ran (unexpected)\n");
    } catch (const FatalError &e) {
        std::printf("  51B TP: OOM (%s)\n", e.what());
    }
    MobiusPlan plan51 = planMobius(server, w51.cost());
    std::printf("  51B Mobius: %.2f s per step\n",
                runMobiusStepEx(server, w51.cost(), plan51).stats.stepTime);
    return 0;
}
