/**
 * @file
 * Exhaustive contiguous-partition search, kept as a slow reference
 * oracle in the test-only mobius_oracles library.
 *
 * It scores every composition of the layer stack (2^(L-1) of them)
 * with the pipeline evaluator and keeps the first with the lowest
 * feasible step time, so tests can check that the scalable search
 * (mipPartition) and the exact MIP reach the true optimum on small
 * models. Exponential: never use it on a real model.
 */

#ifndef MOBIUS_ORACLES_PARTITION_REFERENCE_HH
#define MOBIUS_ORACLES_PARTITION_REFERENCE_HH

#include "plan/partition_algos.hh"

namespace mobius
{

/**
 * Exact optimum by enumerating every composition; fatal() for models
 * with more than @p max_layers layers or no feasible partition.
 * `evaluated` counts every composition scored.
 */
PartitionResult bruteForcePartition(const PipelineCostEvaluator &eval,
                                    int max_layers = 20);

} // namespace mobius

#endif // MOBIUS_ORACLES_PARTITION_REFERENCE_HH
