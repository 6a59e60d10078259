/**
 * @file
 * Workload-synthesis tests: pattern primitives produce the address
 * shapes they claim (streaming word-0 bias, rotating strides,
 * pointer-chase word distributions, mix weights), generators are
 * deterministic per seed, and the benchmark suite's calibrated profiles
 * have the criticality / intensity properties the paper's Fig. 4
 * assigns them.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "common/log.hh"
#include "workloads/pattern.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::workloads;

namespace
{

TEST(StreamPattern, UnitStrideWalksWords)
{
    Rng rng(1);
    StreamPattern p(0x1000, 1 << 20, kWordBytes, 0);
    for (unsigned i = 0; i < 64; ++i)
        EXPECT_EQ(p.next(rng), 0x1000 + i * kWordBytes);
    EXPECT_FALSE(p.dependent());
}

TEST(StreamPattern, WrapsAtWindowEnd)
{
    Rng rng(1);
    StreamPattern p(0, 128, kWordBytes, 0); // 2 lines
    for (int i = 0; i < 16; ++i)
        p.next(rng);
    EXPECT_EQ(p.next(rng), 0u) << "wrapped to window start";
}

TEST(StreamPattern, FirstTouchPerLineIsWordZeroForUnitStride)
{
    Rng rng(1);
    StreamPattern p(0, 1 << 20, kWordBytes, 0);
    std::set<Addr> seen_lines;
    for (int i = 0; i < 10000; ++i) {
        const Addr a = p.next(rng);
        if (seen_lines.insert(lineBase(a)).second) {
            EXPECT_EQ(wordOfLine(a), 0u);
        }
    }
}

TEST(StreamPattern, NonLineMultipleStrideRotatesFirstTouchWord)
{
    // The lbm-style 136 B stride must touch new lines at rotating word
    // offsets (paper appendix: weak word-0 bias for struct walks).
    Rng rng(1);
    StreamPattern p(0, 4 << 20, 136, 0);
    std::map<unsigned, unsigned> first_touch;
    std::set<Addr> seen_lines;
    for (int i = 0; i < 20000; ++i) {
        const Addr a = p.next(rng);
        if (seen_lines.insert(lineBase(a)).second)
            first_touch[wordOfLine(a)] += 1;
    }
    EXPECT_GE(first_touch.size(), 4u) << "criticality must spread";
}

TEST(PointerChase, RespectsWordDistribution)
{
    Rng rng(2);
    PointerChasePattern p(0, 64 << 20, singleWordDist(3));
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(wordOfLine(p.next(rng)), 3u);
    EXPECT_TRUE(p.dependent());
}

TEST(PointerChase, UniformDistributionCoversAllWords)
{
    Rng rng(3);
    PointerChasePattern p(0, 64 << 20, uniformWordDist());
    std::map<unsigned, unsigned> hist;
    for (int i = 0; i < 8000; ++i)
        hist[wordOfLine(p.next(rng))] += 1;
    ASSERT_EQ(hist.size(), kWordsPerLine);
    for (const auto &[w, n] : hist)
        EXPECT_NEAR(n, 1000u, 200u) << "word " << w;
}

TEST(PointerChase, StaysInsideWindow)
{
    Rng rng(4);
    const Addr base = 1ULL << 30;
    const std::uint64_t window = 1 << 20;
    PointerChasePattern p(base, window, uniformWordDist());
    for (int i = 0; i < 5000; ++i) {
        const Addr a = p.next(rng);
        EXPECT_GE(a, base);
        EXPECT_LT(a, base + window);
    }
}

TEST(PointerChase, PerLineWordIsStable)
{
    // Fig. 3 critical-word regularity: a line's word is a fixed property
    // (up to the documented jitter), so two independent walks see the
    // same stable word per line.
    PointerChasePattern a(0, 1 << 20, uniformWordDist());
    PointerChasePattern b(0, 1 << 20, uniformWordDist());
    for (std::uint64_t line = 0; line < 2048; ++line)
        EXPECT_EQ(a.stableWordOf(line), b.stableWordOf(line));
}

TEST(PointerChase, StableWordsFollowDistribution)
{
    PointerChasePattern p(0, 64 << 20, singleWordDist(5));
    for (std::uint64_t line = 0; line < 1000; ++line)
        EXPECT_EQ(p.stableWordOf(line), 5u);
}

TEST(PointerChase, AccessesMatchStableWordUpToJitter)
{
    Rng rng(17);
    PointerChasePattern p(0, 8 << 20, uniformWordDist());
    unsigned matches = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i) {
        const Addr a = p.next(rng);
        matches += wordOfLine(a) ==
                   p.stableWordOf((a & ~static_cast<Addr>(63)) / 64);
    }
    // ~90% stable + some jitter draws landing on the stable word anyway.
    EXPECT_GT(matches / static_cast<double>(draws), 0.85);
}

TEST(PointerChase, PageSkewConcentratesAccesses)
{
    // Section 7.1 calibration: the first kHotPageFraction of the window
    // receives kHotAccessFraction extra mass.
    Rng rng(19);
    const std::uint64_t window = 64 << 20;
    PointerChasePattern p(0, window, uniformWordDist());
    const Addr hot_end = static_cast<Addr>(
        window * PointerChasePattern::kHotPageFraction);
    unsigned hot = 0;
    const int draws = 40000;
    for (int i = 0; i < draws; ++i)
        hot += p.next(rng) < hot_end;
    const double expected = PointerChasePattern::kHotAccessFraction +
                            (1 - PointerChasePattern::kHotAccessFraction) *
                                PointerChasePattern::kHotPageFraction;
    EXPECT_NEAR(hot / static_cast<double>(draws), expected, 0.02);
}

TEST(RandomPattern, IsNotDependent)
{
    Rng rng(5);
    RandomPattern p(0, 1 << 20, uniformWordDist());
    EXPECT_FALSE(p.dependent());
    (void)p.next(rng);
}

TEST(MixPattern, HonorsWeights)
{
    Rng rng(6);
    MixPattern mix;
    // Region A = [0, 1 MB), region B = [1 GB, 1 GB + 1 MB).
    mix.add(StreamPattern(0, 1 << 20, 8, 0), 0.9);
    mix.add(PointerChasePattern(1ULL << 30, 1 << 20, uniformWordDist()),
            0.1);
    unsigned in_b = 0;
    const int draws = 20000;
    for (int i = 0; i < draws; ++i)
        in_b += (mix.next(rng) >= (1ULL << 30));
    EXPECT_NEAR(in_b / static_cast<double>(draws), 0.1, 0.02);
}

TEST(MixPattern, DependentFlagTracksLastComponent)
{
    Rng rng(7);
    MixPattern mix;
    mix.add(PointerChasePattern(0, 1 << 20, uniformWordDist()), 1.0);
    (void)mix.next(rng);
    EXPECT_TRUE(mix.dependent());
}

/** The part the floating-point scan that integer cuts replaced picks
 *  for the 53-bit draw @p x: the first with uniform() * total < cum. */
std::size_t
scanPick(const std::vector<double> &cum, std::uint64_t x)
{
    const double u = static_cast<double>(x) * 0x1.0p-53 * cum.back();
    for (std::size_t i = 0; i < cum.size(); ++i) {
        if (u < cum[i])
            return i;
    }
    return cum.size() - 1;
}

/** MixPattern's integer pick equals scanPick() at each part's cut - 1,
 *  cut and cut + 1, at draws 0 and 2^53 - 1, and at 100k random draws. */
void
expectPickMatchesScan(const std::vector<double> &weights,
                      const std::string &what)
{
    MixPattern mix;
    std::vector<double> cum;
    double total = 0;
    for (const double w : weights) {
        mix.add(StreamPattern(0, 1 << 20, 8, 0), w);
        total += w;
        cum.push_back(total);
    }
    ASSERT_EQ(mix.parts(), weights.size());
    constexpr std::uint64_t kDraws = 1ULL << 53;
    std::vector<std::uint64_t> xs{0, kDraws - 1};
    for (std::size_t i = 0; i < mix.parts(); ++i) {
        const std::uint64_t cut = mix.cut(i);
        for (const std::uint64_t x : {cut - 1, cut, cut + 1}) {
            if (x < kDraws) // cut - 1 wraps when cut is 0
                xs.push_back(x);
        }
    }
    Rng rng(31);
    for (int i = 0; i < 100000; ++i)
        xs.push_back(rng.next() >> 11);
    for (const std::uint64_t x : xs)
        ASSERT_EQ(mix.partOf53(x), scanPick(cum, x)) << what << " x=" << x;
}

TEST(MixPattern, IntegerPickMatchesFloatingPointScan)
{
    for (const BenchmarkProfile &prof : suite::all()) {
        std::vector<double> weights;
        for (const PatternSpec &spec : prof.patterns)
            weights.push_back(spec.weight);
        expectPickMatchesScan(weights, prof.name);
    }
    // Weights that do not sum to a power of two.
    expectPickMatchesScan({0.7, 1.9, 0.35}, "0.7/1.9/0.35");
}

// --------------------------------------------------------- generator

TEST(WorkloadGenerator, DeterministicPerSeed)
{
    const auto &prof = suite::byName("mcf");
    WorkloadGenerator a(prof, 0, 42, 0), b(prof, 0, 42, 0);
    for (int i = 0; i < 2000; ++i) {
        const MicroOp oa = a.next(), ob = b.next();
        ASSERT_EQ(oa.isMem, ob.isMem);
        ASSERT_EQ(oa.addr, ob.addr);
        ASSERT_EQ(oa.isWrite, ob.isWrite);
        ASSERT_EQ(oa.dependsOnPrev, ob.dependsOnPrev);
    }
}

TEST(WorkloadGenerator, DifferentCoresProduceDifferentStreams)
{
    const auto &prof = suite::byName("leslie3d");
    WorkloadGenerator a(prof, 0, 42, 0), b(prof, 1, 42, 1ULL << 30);
    unsigned same = 0, mem = 0;
    for (int i = 0; i < 2000; ++i) {
        const MicroOp oa = a.next(), ob = b.next();
        if (oa.isMem && ob.isMem) {
            mem += 1;
            same += (oa.addr == ob.addr);
        }
    }
    EXPECT_LT(same, mem / 2 + 1);
}

TEST(WorkloadGenerator, MemFractionApproximatelyHonored)
{
    const auto &prof = suite::byName("stream");
    WorkloadGenerator g(prof, 0, 1, 0);
    unsigned mem = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        mem += g.next().isMem;
    EXPECT_NEAR(mem / static_cast<double>(n), prof.memFraction, 0.02);
}

TEST(WorkloadGenerator, WriteFractionApproximatelyHonored)
{
    const auto &prof = suite::byName("lbm"); // write-heavy (0.45)
    WorkloadGenerator g(prof, 0, 1, 0);
    unsigned mem = 0, writes = 0;
    for (int i = 0; i < 50000; ++i) {
        const MicroOp op = g.next();
        if (op.isMem) {
            mem += 1;
            writes += op.isWrite;
        }
    }
    EXPECT_NEAR(writes / static_cast<double>(mem), prof.writeFraction,
                0.04);
}

/** FNV-1a over the first @p ops micro-ops of @p gen. */
std::uint64_t
opStreamDigest(WorkloadGenerator &gen, std::uint64_t ops)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    for (std::uint64_t i = 0; i < ops; ++i) {
        const MicroOp op = gen.next();
        mix(op.addr);
        mix(unsigned{op.isMem} | unsigned{op.isWrite} << 1 |
            unsigned{op.dependsOnPrev} << 2);
    }
    return h;
}

TEST(WorkloadGenerator, OpStreamDigestsArePinned)
{
    // The first 1M ops of each generator as System wires it (seed 12345
    // + 17 * core, base core << 30).  Any change to the generator's
    // draws, their order or their count moves these digests.
    struct Pin
    {
        const char *program;
        unsigned core;
        std::uint64_t digest;
    };
    const Pin pins[] = {
        {"bzip2", 0, 0x4d1563ad83d14da4ULL},
        {"bzip2", 3, 0x7946045f3768efafULL},
        {"ep", 0, 0x79ca3e3eafae2fcfULL},
        {"ep", 3, 0x8efde525ab953579ULL},
        {"mcf", 0, 0x001d77e28f8ef902ULL},
        {"mcf", 3, 0xdb8f85a89ca3ff25ULL},
        {"libquantum", 0, 0x8db8832a57446333ULL},
        {"libquantum", 3, 0x13ddae38b9dce8bfULL},
        {"lbm", 0, 0x8246b6acd4c45b80ULL},
        {"lbm", 3, 0x09358e2745bdd20aULL},
        {"omnetpp", 0, 0x70dcbdda97025ca9ULL},
        {"omnetpp", 3, 0x795a759cefc62ea9ULL},
    };
    for (const Pin &pin : pins) {
        WorkloadGenerator gen(suite::byName(pin.program),
                              static_cast<std::uint8_t>(pin.core),
                              12345 + 17 * pin.core,
                              static_cast<Addr>(pin.core) << 30);
        EXPECT_EQ(opStreamDigest(gen, 1000000), pin.digest)
            << pin.program << " core " << pin.core;
    }
}

// ------------------------------------------------------------- suite

TEST(Suite, ContainsThePapersPrograms)
{
    const auto names = suite::names();
    EXPECT_EQ(names.size(), 26u); // 18 SPEC + GemsFDTD + 6 NPB + STREAM
    for (const char *required :
         {"mcf", "leslie3d", "libquantum", "lbm", "omnetpp", "xalancbmk",
          "bzip2", "hmmer", "stream", "cg", "is", "ep", "lu", "mg", "sp",
          "GemsFDTD"}) {
        EXPECT_NE(std::find(names.begin(), names.end(), required),
                  names.end())
            << required;
    }
}

TEST(Suite, UnknownNameIsFatal)
{
    setLogThrowOnError(true);
    EXPECT_THROW(suite::byName("notabenchmark"), SimError);
    setLogThrowOnError(false);
}

TEST(SuiteDeathTest, UnknownNameExitsListingValidNames)
{
    EXPECT_EXIT(suite::byName("notabenchmark"),
                ::testing::ExitedWithCode(1),
                "unknown benchmark 'notabenchmark'; valid names: .*mcf");
}

/** First-touch word-0 fraction of a profile, measured pattern-level. */
double
word0FirstTouchFraction(const std::string &name)
{
    const auto &prof = suite::byName(name);
    WorkloadGenerator g(prof, 0, 9, 0);
    std::set<Addr> seen;
    unsigned firsts = 0, word0 = 0;
    for (int i = 0; i < 300000 && firsts < 4000; ++i) {
        const MicroOp op = g.next();
        if (!op.isMem)
            continue;
        if (seen.insert(lineBase(op.addr)).second) {
            firsts += 1;
            word0 += (wordOfLine(op.addr) == 0);
        }
    }
    return firsts ? static_cast<double>(word0) / firsts : 0.0;
}

TEST(Suite, StreamingProgramsAreWordZeroDominant)
{
    // Fig. 4: leslie3d/libquantum/hmmer-class programs are word-0
    // critical in well over half of fetches.
    for (const char *name : {"leslie3d", "libquantum", "stream", "hmmer",
                             "lu", "GemsFDTD"}) {
        EXPECT_GT(word0FirstTouchFraction(name), 0.6) << name;
    }
}

TEST(Suite, PointerChasersSpreadCriticality)
{
    for (const char *name : {"omnetpp", "xalancbmk"})
        EXPECT_LT(word0FirstTouchFraction(name), 0.45) << name;
}

TEST(Suite, McfIsBimodalAtWordsZeroAndThree)
{
    const auto &prof = suite::byName("mcf");
    WorkloadGenerator g(prof, 0, 9, 0);
    std::set<Addr> seen;
    std::array<unsigned, kWordsPerLine> hist{};
    unsigned firsts = 0;
    for (int i = 0; i < 400000 && firsts < 5000; ++i) {
        const MicroOp op = g.next();
        if (!op.isMem)
            continue;
        if (seen.insert(lineBase(op.addr)).second) {
            firsts += 1;
            hist[wordOfLine(op.addr)] += 1;
        }
    }
    ASSERT_GT(firsts, 1000u);
    // Words 0 and 3 are the two most frequent critical words (Fig. 3b).
    const unsigned w0 = hist[0], w3 = hist[3];
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (w == 0 || w == 3)
            continue;
        EXPECT_LT(hist[w], std::max(w0, w3)) << "word " << w;
    }
}

TEST(Suite, DependentAccessesOnlyFromChasers)
{
    const auto &stream_prof = suite::byName("stream");
    WorkloadGenerator s(stream_prof, 0, 3, 0);
    for (int i = 0; i < 10000; ++i)
        EXPECT_FALSE(s.next().dependsOnPrev);

    const auto &mcf_prof = suite::byName("mcf");
    WorkloadGenerator m(mcf_prof, 0, 3, 0);
    unsigned dependent = 0;
    for (int i = 0; i < 20000; ++i)
        dependent += m.next().dependsOnPrev;
    EXPECT_GT(dependent, 0u);
}

TEST(Suite, IntensityClassesDiffer)
{
    // ep (embarrassingly parallel) must touch far fewer distinct lines
    // than lbm at equal instruction counts: that is the DRAM-pressure
    // knob behind Fig. 1/11.
    auto coldness = [](const std::string &name) {
        const auto &prof = suite::byName(name);
        WorkloadGenerator g(prof, 0, 5, 0);
        std::set<Addr> lines;
        for (int i = 0; i < 1000000; ++i) {
            const MicroOp op = g.next();
            if (op.isMem)
                lines.insert(lineBase(op.addr));
        }
        return lines.size();
    };
    EXPECT_GT(coldness("lbm"), 3 * coldness("ep"));
    EXPECT_GT(coldness("leslie3d"), 2 * coldness("bzip2"));
}

TEST(Suite, HelperListsAreValidNames)
{
    for (const auto &n : suite::word0Winners())
        EXPECT_NO_THROW(suite::byName(n));
    for (const auto &n : suite::pointerChasers())
        EXPECT_NO_THROW(suite::byName(n));
}

} // namespace
