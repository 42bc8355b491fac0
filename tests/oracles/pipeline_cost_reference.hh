/**
 * @file
 * The original per-range-loop pipeline evaluator (§3.2, Eq. 3-11),
 * kept as a slow reference oracle in the test-only mobius_oracles
 * library.
 *
 * It re-sums every stage's constants layer by layer through the
 * CostModel::range* / stageMem* loops and keeps full S x M
 * start-time matrices. The production PipelineCostEvaluator reads
 * the same constants from a table built once per evaluator and
 * keeps one rolling microbatch row instead; this copy exists so
 * tests can check that every double it returns is bitwise equal.
 *
 * Do not use it on a hot path.
 */

#ifndef MOBIUS_ORACLES_PIPELINE_COST_REFERENCE_HH
#define MOBIUS_ORACLES_PIPELINE_COST_REFERENCE_HH

#include "plan/pipeline_cost.hh"

namespace mobius
{

/** Evaluate @p partition with @p eval's cost model and env. */
PipelineEstimate pipelineCostReference(const PipelineCostEvaluator &eval,
                                       const Partition &partition);

} // namespace mobius

#endif // MOBIUS_ORACLES_PIPELINE_COST_REFERENCE_HH
