#include "sim/system_config.hh"

#include <sstream>

#include "common/log.hh"
#include "dram/dram_params.hh"

namespace hetsim::sim
{

const char *
toString(MemConfig config)
{
    switch (config) {
      case MemConfig::BaselineDDR3:
        return "DDR3";
      case MemConfig::HomoRLDRAM3:
        return "RLDRAM3";
      case MemConfig::HomoLPDDR2:
        return "LPDDR2";
      case MemConfig::CwfRD:
        return "RD";
      case MemConfig::CwfRL:
        return "RL";
      case MemConfig::CwfDL:
        return "DL";
      case MemConfig::CwfRLAdaptive:
        return "RL-AD";
      case MemConfig::CwfRLOracle:
        return "RL-OR";
      case MemConfig::CwfRLRandom:
        return "RL-RND";
      case MemConfig::CwfRLMalladi:
        return "RL-Malladi";
      case MemConfig::PagePlacement:
        return "PagePlacement";
    }
    return "?";
}

MemConfig
memConfigByName(const std::string &name)
{
    std::string valid;
    for (const MemConfig c : allMemConfigs()) {
        if (name == toString(c))
            return c;
        valid += valid.empty() ? "" : ", ";
        valid += toString(c);
    }
    fatal("unknown memory configuration '", name,
          "'; valid configurations: ", valid);
}

std::vector<MemConfig>
allMemConfigs()
{
    return {MemConfig::BaselineDDR3,  MemConfig::HomoRLDRAM3,
            MemConfig::HomoLPDDR2,    MemConfig::CwfRD,
            MemConfig::CwfRL,         MemConfig::CwfDL,
            MemConfig::CwfRLAdaptive, MemConfig::CwfRLOracle,
            MemConfig::CwfRLRandom,   MemConfig::CwfRLMalladi,
            MemConfig::PagePlacement};
}

std::string
SystemParams::cacheKey() const
{
    std::ostringstream os;
    os << toString(mem) << "/c" << cores << "/pf" << prefetcherEnabled
       << "/s" << seed << "/hp" << hotPages.size();
    // Appended only at a nonzero parity-fail rate, so keys of fault-free
    // runs are untouched.
    if (fault.parityFailRate > 0)
        os << "/par" << fault.parityFailRate;
    return os.str();
}

namespace
{

/** Table 1's four 1-rank channels of @p device. */
std::unique_ptr<cwf::MemoryBackend>
buildHomogeneous(dram::DeviceParams device)
{
    cwf::HomogeneousMemory::Params p;
    p.device = std::move(device);
    return std::make_unique<cwf::HomogeneousMemory>(p);
}

std::unique_ptr<cwf::LineLayout>
layoutFor(MemConfig config)
{
    switch (config) {
      case MemConfig::CwfRLAdaptive:
        return std::make_unique<cwf::AdaptiveLayout>();
      case MemConfig::CwfRLOracle:
        return std::make_unique<cwf::OracleLayout>();
      case MemConfig::CwfRLRandom:
        return std::make_unique<cwf::RandomLayout>();
      default:
        return std::make_unique<cwf::StaticLayout>();
    }
}

std::unique_ptr<cwf::MemoryBackend>
buildCwf(const SystemParams &params)
{
    cwf::CwfHeteroMemory::Params p;
    p.configName = toString(params.mem);
    p.fault = params.fault;
    p.seed = params.seed;

    switch (params.mem) {
      case MemConfig::CwfRD:
        p.slowDevice = dram::DeviceParams::ddr3_1600();
        p.fastDevice = dram::DeviceParams::rldram3();
        break;
      case MemConfig::CwfRL:
      case MemConfig::CwfRLAdaptive:
      case MemConfig::CwfRLOracle:
      case MemConfig::CwfRLRandom:
        p.slowDevice = dram::DeviceParams::lpddr2_800();
        p.fastDevice = dram::DeviceParams::rldram3();
        break;
      case MemConfig::CwfRLMalladi:
        p.slowDevice = dram::DeviceParams::lpddr2_800_noOdt();
        p.fastDevice = dram::DeviceParams::rldram3();
        break;
      case MemConfig::CwfDL:
        p.slowDevice = dram::DeviceParams::lpddr2_800();
        // The DL fast DIMM is built from DDR3 chips run close-page and
        // sub-ranked x9, mirroring the RLDRAM organisation at DDR3
        // latencies.
        p.fastDevice = dram::DeviceParams::ddr3_1600();
        p.fastDevice.policy = dram::PagePolicy::Close;
        break;
      default:
        panic("buildCwf called for non-CWF config");
    }

    // The slow DIMM carries words 1-7 + ECC on 8 chips (Fig. 5b); the
    // fast fragment lives on single-chip x9 sub-ranks.
    p.slowChipsPerRank = 8;
    p.fastChipsPerRank = 1;
    // Word-granularity geometry on the fast chip: each "column" is one
    // 8-byte critical word, 4 sub-channels x 4 ranks cover the space.
    p.fastDevice.lineColsPerRow = p.fastDevice.lineColsPerRow * 2;

    return std::make_unique<cwf::CwfHeteroMemory>(p,
                                                  layoutFor(params.mem));
}

} // namespace

void
validate(const SystemParams &params)
{
    if (params.cores == 0 || params.cores > 256)
        fatal("SystemParams: cores must be in [1,256], got ", params.cores);
    if (!params.hotPages.empty() && params.mem != MemConfig::PagePlacement)
        fatal("SystemParams: ", params.hotPages.size(),
              " hot pages given to ", toString(params.mem),
              "; only PagePlacement places hot pages");
}

std::unique_ptr<cwf::MemoryBackend>
buildBackend(const SystemParams &params)
{
    switch (params.mem) {
      case MemConfig::BaselineDDR3:
        return buildHomogeneous(dram::DeviceParams::ddr3_1600());
      case MemConfig::HomoRLDRAM3:
        return buildHomogeneous(dram::DeviceParams::rldram3());
      case MemConfig::HomoLPDDR2:
        return buildHomogeneous(dram::DeviceParams::lpddr2_800());
      case MemConfig::CwfRD:
      case MemConfig::CwfRL:
      case MemConfig::CwfDL:
      case MemConfig::CwfRLAdaptive:
      case MemConfig::CwfRLOracle:
      case MemConfig::CwfRLRandom:
      case MemConfig::CwfRLMalladi:
        return buildCwf(params);
      case MemConfig::PagePlacement: {
        // Three LPDDR2 channels plus one RLDRAM3 channel for the hot
        // pages: iso-pin and iso-chip-count with the RL system.
        cwf::HomogeneousMemory::Params p;
        p.device = dram::DeviceParams::lpddr2_800();
        p.channels = 3;
        p.hotDevice = dram::DeviceParams::rldram3();
        return std::make_unique<cwf::HomogeneousMemory>(p, params.hotPages);
      }
    }
    panic("unhandled memory configuration");
}

} // namespace hetsim::sim
