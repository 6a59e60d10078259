/**
 * @file
 * Deterministic golden-run regression layer: seeded, fully reproducible
 * runs of the paper's five headline memory configurations (DDR3
 * baseline, RD, RL, RL AD, RL OR) and of a small workload matrix,
 * reduced to a canonical digest — IPC, DRAM power/energy, latency and
 * lead-time percentiles — that is compared byte-for-byte against the
 * checked-in JSON baselines under `tests/golden/`.
 *
 * Digest doubles are rounded to 9 significant digits so the comparison
 * is robust to sub-ulp noise while still catching any real model drift.
 * Regenerate baselines with `scripts/regen_golden.sh` after an intended
 * model change (the golden-run test rewrites them under
 * HETSIM_REGEN_GOLDEN=1).
 */

#ifndef HETSIM_SIM_GOLDEN_HH
#define HETSIM_SIM_GOLDEN_HH

#include <string>
#include <vector>

#include "sim/simulator.hh"
#include "sim/system_config.hh"

namespace hetsim::sim
{

/** The pinned workload/run shape of the six paper-config golden runs. */
extern const char *const kGoldenBenchmark;
constexpr unsigned kGoldenCores = 8;
constexpr std::uint64_t kGoldenSeed = 12345;

/** Small fixed window (never influenced by HETSIM_READS-style env). */
RunConfig goldenRunConfig();

/** One pinned configuration of the golden suite. */
struct GoldenSpec
{
    MemConfig config;
    const char *key; ///< stable file stem, e.g. "cwf_rl" -> cwf_rl.json
    const char *benchmark = kGoldenBenchmark;
    RunConfig run = goldenRunConfig();
};

/** The six paper configurations covered by the golden suite. */
const std::vector<GoldenSpec> &goldenSpecs();

/**
 * Workload matrix at a tier-1-cheap quantum: streaming (libquantum,
 * leslie3d), pointer chase (omnetpp), write-heavy (lbm) and a
 * low-intensity run that ends at a small tick cap (ep), each under DDR3
 * and RL, plus libquantum on all-LPDDR2, all-RLDRAM3 and the Section 7.1
 * page placement.  Widens the net beyond mcf for changes claimed
 * bit-identical.
 */
const std::vector<GoldenSpec> &goldenMatrixSpecs();

struct GoldenOutcome
{
    std::string digest;     ///< canonical digest JSON (compared to file)
    std::string fullReport; ///< full renderReportJson (bit-stability check)
    RunResult result;
};

/** The system parameters of one golden run: the spec's configuration,
 *  the pinned seed and, for MemConfig::PagePlacement, the hot pages of
 *  a DDR3 profiling run over the spec's own window. */
SystemParams goldenParams(const GoldenSpec &spec);

/** Build + run one golden configuration from a cold system, with
 *  goldenParams(spec) or the given @p params. */
GoldenOutcome runGolden(const GoldenSpec &spec);
GoldenOutcome runGolden(const GoldenSpec &spec, const SystemParams &params);

/** Render the canonical digest for an already-finished run of @p rc. */
std::string renderGoldenDigest(System &system, const RunResult &result,
                               const RunConfig &rc = goldenRunConfig());

} // namespace hetsim::sim

#endif // HETSIM_SIM_GOLDEN_HH
