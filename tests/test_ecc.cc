/**
 * @file
 * Tests for the per-byte parity on the critical-word channel: every
 * single-bit flip is detected and attributed to its byte, an odd number
 * of flips within a byte is detected and an even number escapes, and
 * random-word sweeps repeat the attribution under several seeds.
 */

#include <gtest/gtest.h>

#include <bit>

#include "common/rng.hh"
#include "ecc/parity.hh"

using namespace hetsim;
using ecc::ByteParity;

namespace
{

TEST(ByteParity, CleanWordPasses)
{
    const std::uint64_t w = 0x0102030405060708ULL;
    EXPECT_TRUE(ByteParity::check(w, ByteParity::encode(w)));
    EXPECT_EQ(ByteParity::failingBytes(w, ByteParity::encode(w)), 0);
}

TEST(ByteParity, DetectsEverySingleBitFlip)
{
    const std::uint64_t w = 0xdeadbeef01234567ULL;
    const std::uint8_t p = ByteParity::encode(w);
    for (unsigned bit = 0; bit < 64; ++bit) {
        const std::uint64_t bad = w ^ (1ULL << bit);
        EXPECT_FALSE(ByteParity::check(bad, p)) << "bit " << bit;
        EXPECT_EQ(ByteParity::failingBytes(bad, p), 1u << (bit / 8));
    }
}

TEST(ByteParity, TwoFlipsInSameByteEscape)
{
    // Parity is only a single-error detector per byte: an even number of
    // flips within one byte is invisible (the paper accepts this: the
    // word is covered again by SECDED once the whole line arrives).
    const std::uint64_t w = 0x00000000000000ffULL;
    const std::uint8_t p = ByteParity::encode(w);
    const std::uint64_t bad = w ^ 0x3; // two flips in byte 0
    EXPECT_TRUE(ByteParity::check(bad, p));
}

TEST(ByteParity, FlipsInDifferentBytesAreDetected)
{
    const std::uint64_t w = 0x123456789abcdef0ULL;
    const std::uint8_t p = ByteParity::encode(w);
    const std::uint64_t bad = w ^ 0x0000010000000100ULL; // bytes 1 and 5
    EXPECT_FALSE(ByteParity::check(bad, p));
    EXPECT_EQ(ByteParity::failingBytes(bad, p), (1u << 1) | (1u << 5));
}

TEST(ByteParity, KnownVector)
{
    // 0x01 has odd popcount -> parity bit set; 0x03 even -> clear.
    EXPECT_EQ(ByteParity::encode(0x01ULL), 0x01);
    EXPECT_EQ(ByteParity::encode(0x03ULL), 0x00);
    EXPECT_EQ(ByteParity::encode(0x0100ULL), 0x02);
}

TEST(ByteParity, EncodeIsLinear)
{
    // Parity is linear over GF(2): encode(a ^ b) == encode(a) ^ encode(b).
    Rng rng(99);
    for (int i = 0; i < 100; ++i) {
        const std::uint64_t a = rng.next(), b = rng.next();
        EXPECT_EQ(ByteParity::encode(a ^ b),
                  ByteParity::encode(a) ^ ByteParity::encode(b));
    }
}

TEST(ByteParity, OddFlipCountsInAByteAreDetectedEvenOnesEscape)
{
    // Every flip pattern confined to one byte, in every byte position:
    // the byte is flagged exactly when the pattern has odd weight.
    const std::uint64_t w = 0x0f1e2d3c4b5a6978ULL;
    const std::uint8_t p = ByteParity::encode(w);
    for (unsigned byte = 0; byte < 8; ++byte) {
        for (unsigned mask = 1; mask < 256; ++mask) {
            const std::uint64_t bad =
                w ^ (static_cast<std::uint64_t>(mask) << (byte * 8));
            const bool odd = std::popcount(mask) % 2 == 1;
            ASSERT_EQ(ByteParity::failingBytes(bad, p),
                      odd ? 1u << byte : 0u)
                << "byte " << byte << " mask " << mask;
        }
    }
}

/** Property sweep: random words under random single flips and random
 *  flip pairs in two distinct bytes. */
class ParityRandomWords : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ParityRandomWords, EveryFlipIsAttributedToItsByte)
{
    Rng rng(GetParam());
    for (int iter = 0; iter < 200; ++iter) {
        const std::uint64_t w = rng.next();
        const std::uint8_t p = ByteParity::encode(w);
        const unsigned a = static_cast<unsigned>(rng.below(64));
        ASSERT_EQ(ByteParity::failingBytes(w ^ (1ULL << a), p),
                  1u << (a / 8));
        unsigned b = static_cast<unsigned>(rng.below(64));
        while (b / 8 == a / 8)
            b = static_cast<unsigned>(rng.below(64));
        ASSERT_EQ(ByteParity::failingBytes(w ^ (1ULL << a) ^ (1ULL << b), p),
                  (1u << (a / 8)) | (1u << (b / 8)));
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParityRandomWords,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

} // namespace
