/**
 * @file
 * Per-byte parity for the critical word stored on the x9 RLDRAM chip
 * (paper Section 4.2.3): one parity bit rides with every data byte, so
 * the 64-bit critical word carries 8 parity bits over the 9-bit channel.
 *
 * Parity is the lightweight error *detector* that gates early wakeup;
 * the slow DIMM's SECDED check, a modelled zero-cost step, covers the
 * word when the rest of the line arrives.
 */

#ifndef HETSIM_ECC_PARITY_HH
#define HETSIM_ECC_PARITY_HH

#include <cstdint>

namespace hetsim::ecc
{

class ByteParity
{
  public:
    /** Even parity bit per byte, byte 0 in bit 0. */
    static std::uint8_t encode(std::uint64_t word);

    /** True if @p word is consistent with @p parity. */
    static bool check(std::uint64_t word, std::uint8_t parity);

    /** Bitmask of bytes whose parity fails (0 = clean). */
    static std::uint8_t failingBytes(std::uint64_t word,
                                     std::uint8_t parity);
};

} // namespace hetsim::ecc

#endif // HETSIM_ECC_PARITY_HH
