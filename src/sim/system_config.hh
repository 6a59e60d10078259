/**
 * @file
 * Named memory-system configurations of the paper's evaluation and the
 * factory that builds them.
 *
 * Homogeneous (Fig. 1): BaselineDDR3, HomoRLDRAM3, HomoLPDDR2.
 * CWF heterogeneous (Section 6.1): RD (RLDRAM3+DDR3), RL (RLDRAM3+LPDDR2,
 * the flagship), DL (DDR3+LPDDR2); RL with adaptive / oracle / random
 * critical-word placement; RL with Malladi-style unmodified LPDRAM
 * (Section 7.2).  PagePlacement is the Section 7.1 comparison.
 */

#ifndef HETSIM_SIM_SYSTEM_CONFIG_HH
#define HETSIM_SIM_SYSTEM_CONFIG_HH

#include <memory>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/hetero_memory.hh"

namespace hetsim::sim
{

enum class MemConfig : std::uint8_t {
    BaselineDDR3,
    HomoRLDRAM3,
    HomoLPDDR2,
    CwfRD,
    CwfRL,
    CwfDL,
    CwfRLAdaptive,
    CwfRLOracle,
    CwfRLRandom,
    CwfRLMalladi,
    PagePlacement,
};

const char *toString(MemConfig config);
MemConfig memConfigByName(const std::string &name);
std::vector<MemConfig> allMemConfigs();

/** Full system parameterisation (Table 1 defaults). */
struct SystemParams
{
    MemConfig mem = MemConfig::BaselineDDR3;
    unsigned cores = 8;
    bool prefetcherEnabled = true;
    /** Critical-word parity failures (seeded by `seed`); the default
     *  injects nothing. */
    fault::FaultParams fault;
    bool trackPerLineCriticality = false;
    bool trackPageCounts = false;
    std::uint64_t seed = 12345;
    /** Hot-page set for MemConfig::PagePlacement (from a profiling run). */
    std::unordered_set<std::uint64_t> hotPages;

    /** Stable cache key for memoised experiment runs. */
    std::string cacheKey() const;
};

/** fatal() unless @p params describes a system that can run: 1 to 256
 *  cores (core ids are 8-bit) and hot pages only under PagePlacement. */
void validate(const SystemParams &params);

/** Construct the memory backend for @p params. */
std::unique_ptr<cwf::MemoryBackend> buildBackend(const SystemParams &params);

} // namespace hetsim::sim

#endif // HETSIM_SIM_SYSTEM_CONFIG_HH
