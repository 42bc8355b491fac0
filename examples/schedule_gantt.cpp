/**
 * @file
 * Schedule visualiser: run one Mobius step on a small configuration,
 * print the executed schedule as an ASCII Gantt chart (compare with
 * the paper's Figure 4), and write a Chrome-tracing JSON file you
 * can open in chrome://tracing or https://ui.perfetto.dev.
 *
 * Usage: schedule_gantt [stages] [out.json]
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "runtime/api.hh"

using namespace mobius;

int
main(int argc, char **argv)
{
    int stages = argc > 1 ? std::atoi(argv[1]) : 8;
    const char *out = argc > 2 ? argv[2] : "mobius_trace.json";
    if (stages < 4) {
        std::fprintf(stderr, "usage: %s [stages>=4] [out.json]\n",
                     argv[0]);
        return 1;
    }

    // Small setup so the chart stays readable: 4 GPUs, a coarse
    // partition (Figure 4 uses S = 8, N = 4, M = 4).
    Server server = makeCommodityServer({2, 2});
    Workload work(gpt15b(), server, 2);
    MobiusPlan plan;
    plan.partition = uniformPartition(work.cost().numLayers(), stages);
    plan.mapping = crossMapping(server.topo, stages).mapping;

    TraceRecorder trace;
    StepRunOptions opts;
    opts.traceOut = &trace;
    StepStats stats =
        runMobiusStepEx(server, work.cost(), plan, opts).stats;

    std::printf("Mobius step on %s: %d stages over %d GPUs, "
                "%d microbatches -> %.2f s\n\n",
                server.name.c_str(), stages, stats.numGpus,
                work.train().numMicrobatches, stats.stepTime);
    std::printf("%s\n", trace.toAsciiGantt(96).c_str());

    std::ofstream os(out);
    os << trace.toChromeJson();
    std::printf("full trace written to %s (open in "
                "chrome://tracing)\n", out);
    return 0;
}
