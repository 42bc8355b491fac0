/**
 * @file
 * The original exhaustive cross-mapping search (§3.3), kept as a slow
 * reference oracle in the test-only mobius_oracles library.
 *
 * It scores every one of the N! GPU orders with Eq. 13 and keeps the
 * first (lexicographically smallest) order that improves the best
 * score by more than 1e-12. The production crossMapping() scores one
 * order per class of Eq. 13-equivalent orders instead; this copy
 * exists so tests can check that it picks the same order and the
 * same contention bits on every topology they sweep.
 *
 * Do not use it on a hot path: 8 GPUs take 40,320 scorings.
 */

#ifndef MOBIUS_ORACLES_MAPPING_REFERENCE_HH
#define MOBIUS_ORACLES_MAPPING_REFERENCE_HH

#include "plan/mapping.hh"

namespace mobius
{

/** Exhaustive §3.3 cross mapping; `evaluated` counts all N! orders. */
MappingResult crossMappingReference(const Topology &topo,
                                    int num_stages);

} // namespace mobius

#endif // MOBIUS_ORACLES_MAPPING_REFERENCE_HH
