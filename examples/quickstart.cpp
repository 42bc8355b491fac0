/**
 * @file
 * Quickstart: fine-tune a 15-billion-parameter GPT on a commodity
 * 4x 3090-Ti server with Mobius, and compare against the DeepSpeed
 * (ZeRO-3 + heterogeneous memory) baseline.
 *
 * Build and run:
 *     cmake -B build -G Ninja && cmake --build build
 *     ./build/examples/quickstart
 */

#include <cstdio>

#include "runtime/api.hh"

using namespace mobius;

int
main()
{
    // 1. Describe the server: four 3090-Ti GPUs, two per CPU root
    //    complex (the paper's Topo 2+2), PCIe 3.0, no GPUDirect P2P.
    Server server = makeCommodityServer({2, 2});
    std::printf("server: %s, DRAM %s\n", server.name.c_str(),
                formatBytes(server.dramBytes).c_str());

    // 2. Describe the workload: the Table 3 15B model with its
    //    default microbatch size; one microbatch per GPU (M = N).
    Workload work(gpt15b(), server);
    std::printf("model:  %s (%.1fB parameters, %s FP32)\n",
                work.model().name.c_str(),
                work.model().totalParams() / 1e9,
                formatBytes(work.model().totalParamBytesFp32())
                    .c_str());

    // 3. Plan: profile (with layer similarity), solve the MIP
    //    partition, search the cross mapping.
    MobiusPlan plan = planMobius(server, work.cost());
    std::printf("\nplan:   %d stages (%s)\n", plan.stageCount(),
                partitionToString(plan.partition).c_str());
    std::printf("        GPU order:");
    for (int g : plan.mapping.gpuOrder)
        std::printf(" %d", g);
    std::printf("  (contention degree %.2f)\n",
                plan.mapping.contention);
    std::printf("        overheads: profiling %.2fs, MIP %.3fs, "
                "mapping %.4fs\n",
                plan.profilingSeconds, plan.solveSeconds,
                plan.mappingSeconds);

    // 4. Execute one training step on the event-driven simulator.
    StepStats mobius = runMobiusStepEx(server, work.cost(), plan).stats;
    StepStats deepspeed = runZeroStepEx(server, work.cost()).stats;

    Bytes p32 = work.model().totalParamBytesFp32();
    std::printf("\n%-12s %12s %14s %18s\n", "system", "step time",
                "traffic", "exposed comm");
    auto row = [&](const StepStats &s) {
        std::printf("%-12s %11.2fs %13.2fx %17.1f%%\n",
                    s.system.c_str(), s.stepTime,
                    s.trafficRatio(p32),
                    100 * s.exposedCommFraction());
    };
    row(mobius);
    row(deepspeed);
    std::printf("\nMobius speedup over DeepSpeed: %.2fx\n",
                deepspeed.stepTime / mobius.stepTime);
    return 0;
}
