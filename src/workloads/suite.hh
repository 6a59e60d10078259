/**
 * @file
 * Benchmark profiles for the paper's workload suite and the generator
 * that turns a profile into a per-core micro-op stream.
 *
 * The original evaluation ran SPEC CPU2006, OpenMP NAS Parallel
 * Benchmarks and STREAM under full-system simulation.  Those binaries are
 * not available here, so each program is modelled by a synthetic profile
 * with three calibrated properties (see DESIGN.md, substitution table):
 *
 *  1. DRAM pressure (memory fraction x cold-miss probability), matching
 *     the qualitative intensity classes visible in Figs. 1/11;
 *  2. critical-word distribution, matching Fig. 4 (e.g. leslie3d ~90 %
 *     word 0; mcf bimodal at words 0 and 3; omnetpp/xalancbmk uniform);
 *  3. access dependence (pointer chasing serialises misses).
 */

#ifndef HETSIM_WORKLOADS_SUITE_HH
#define HETSIM_WORKLOADS_SUITE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workloads/pattern.hh"

namespace hetsim::workloads
{

/** Declarative description of one pattern component. */
struct PatternSpec
{
    enum class Kind : std::uint8_t { Stream, Chase, Random };

    Kind kind = Kind::Stream;
    double weight = 1.0;
    std::uint64_t strideBytes = kWordBytes;   ///< Stream only
    std::uint64_t windowBytes = 64ULL << 20;  ///< working-set window
    std::array<double, kWordsPerLine> wordDist = uniformWordDist();
};

struct BenchmarkProfile
{
    std::string name;
    std::string suiteName;    ///< "SPEC2006" | "NPB" | "STREAM"
    double memFraction = 0.3; ///< memory ops per instruction
    double writeFraction = 0.3;
    std::vector<PatternSpec> patterns;
    std::string notes;        ///< calibration rationale
};

/**
 * Instantiates a profile as a deterministic per-core op stream.  next()
 * is inline: a core calls it once per dispatched op.
 */
class WorkloadGenerator
{
  public:
    WorkloadGenerator(const BenchmarkProfile &profile,
                      std::uint8_t core_id, std::uint64_t seed,
                      Addr base_addr);

    MicroOp
    next()
    {
        MicroOp op;
        if (!rng_.chance(memChance_))
            return op; // plain ALU op
        op.isMem = true;
        op.addr = mix_.next(rng_);
        op.dependsOnPrev = mix_.dependent();
        op.isWrite = rng_.chance(writeChance_);
        return op;
    }

    const BenchmarkProfile &profile() const { return profile_; }

  private:
    const BenchmarkProfile &profile_;
    Rng rng_;
    /** The profile's memFraction and writeFraction as draw thresholds. */
    Rng::Threshold memChance_;
    Rng::Threshold writeChance_;
    MixPattern mix_;
};

namespace suite
{

/** All modelled benchmarks (18 SPEC + 6 NPB + STREAM + GemsFDTD). */
const std::vector<BenchmarkProfile> &all();

/** Lookup by name; fatal() on unknown names. */
const BenchmarkProfile &byName(const std::string &name);

std::vector<std::string> names();

/** The word-0-dominant subset the paper highlights as big CWF winners. */
std::vector<std::string> word0Winners();

/** Pointer-chasing programs with weak word-0 bias. */
std::vector<std::string> pointerChasers();

} // namespace suite

} // namespace hetsim::workloads

#endif // HETSIM_WORKLOADS_SUITE_HH
