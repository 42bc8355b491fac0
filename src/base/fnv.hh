/**
 * @file
 * 64-bit FNV-1a mixing, the one digest behind every fingerprint.
 *
 * spanFingerprint (simcore/trace), serveFingerprint (serve/slo) and
 * the fleet and scheduler-decision fingerprints (fleet/fleet_sim)
 * fold their fields through these helpers, so the bit-identity
 * tokens that test_golden pins all share one definition. Integers
 * are folded as eight bytes, least significant first; doubles by
 * their bit pattern, so -0.0 vs 0.0 and NaN payloads stay distinct.
 * Header-only and inline: spanFingerprint runs on every step.
 */

#ifndef MOBIUS_BASE_FNV_HH
#define MOBIUS_BASE_FNV_HH

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string_view>

namespace mobius::fnv
{

/** FNV-1a 64-bit offset basis: the digest's starting value. */
inline constexpr std::uint64_t kOffset = 1469598103934665603ull;
/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t kPrime = 1099511628211ull;

/** Fold the @p n bytes at @p data into @p h. */
inline void
mixBytes(std::uint64_t &h, const void *data, std::size_t n)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= kPrime;
    }
}

/** Fold the eight bytes of @p v, least significant first. */
inline void
mixU64(std::uint64_t &h, std::uint64_t v)
{
    for (int b = 0; b < 8; ++b) {
        h ^= (v >> (8 * b)) & 0xff;
        h *= kPrime;
    }
}

/** Fold the bit pattern of @p v. */
inline void
mixDouble(std::uint64_t &h, double v)
{
    static_assert(sizeof(double) == sizeof(std::uint64_t));
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mixU64(h, bits);
}

/** Fold @p s's length (as a u64), then its bytes. */
inline void
mixString(std::uint64_t &h, std::string_view s)
{
    mixU64(h, s.size());
    mixBytes(h, s.data(), s.size());
}

} // namespace mobius::fnv

#endif // MOBIUS_BASE_FNV_HH
