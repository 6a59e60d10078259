#include "workloads/suite.hh"

#include <set>

#include "common/log.hh"

namespace hetsim::workloads
{

WorkloadGenerator::WorkloadGenerator(const BenchmarkProfile &profile,
                                     std::uint8_t core_id,
                                     std::uint64_t seed, Addr base_addr)
    : profile_(profile),
      rng_(seed * 0x1000193ULL + core_id * 0x9e3779b97f4a7c15ULL + 1),
      memChance_(profile.memFraction), writeChance_(profile.writeFraction)
{
    sim_assert(!profile.patterns.empty(), profile.name,
               ": profile has no patterns");
    for (const auto &spec : profile.patterns) {
        switch (spec.kind) {
          case PatternSpec::Kind::Stream:
            mix_.add(StreamPattern(base_addr, spec.windowBytes,
                                   spec.strideBytes, /*start_offset=*/0),
                     spec.weight);
            break;
          case PatternSpec::Kind::Chase:
            mix_.add(PointerChasePattern(base_addr, spec.windowBytes,
                                         spec.wordDist),
                     spec.weight);
            break;
          case PatternSpec::Kind::Random:
            mix_.add(RandomPattern(base_addr, spec.windowBytes,
                                   spec.wordDist),
                     spec.weight);
            break;
        }
    }
}

namespace suite
{

namespace
{

constexpr std::uint64_t kKiB = 1024;
constexpr std::uint64_t kMiB = 1024 * kKiB;

PatternSpec
stream(double weight, std::uint64_t stride, std::uint64_t window)
{
    PatternSpec s;
    s.kind = PatternSpec::Kind::Stream;
    s.weight = weight;
    s.strideBytes = stride;
    s.windowBytes = window;
    return s;
}

PatternSpec
chase(double weight, std::uint64_t window,
      std::array<double, kWordsPerLine> dist = uniformWordDist())
{
    PatternSpec s;
    s.kind = PatternSpec::Kind::Chase;
    s.weight = weight;
    s.windowBytes = window;
    s.wordDist = dist;
    return s;
}

PatternSpec
random(double weight, std::uint64_t window,
       std::array<double, kWordsPerLine> dist = uniformWordDist())
{
    PatternSpec s;
    s.kind = PatternSpec::Kind::Random;
    s.weight = weight;
    s.windowBytes = window;
    s.wordDist = dist;
    return s;
}

/** Cache-resident component soaking up the non-missing accesses.  The
 *  window fits the private 32 KB L1 so hot traffic never competes with
 *  the streamed/prefetched data in the shared L2. */
PatternSpec
hot(double weight)
{
    return stream(weight, kWordBytes, 16 * kKiB);
}

BenchmarkProfile
make(std::string name, std::string suite_name, double write_frac,
     std::vector<PatternSpec> patterns, std::string notes)
{
    BenchmarkProfile p;
    p.name = std::move(name);
    p.suiteName = std::move(suite_name);
    p.memFraction = 0.3;
    p.writeFraction = write_frac;
    p.patterns = std::move(patterns);
    p.notes = std::move(notes);
    return p;
}

std::vector<BenchmarkProfile>
buildAll()
{
    std::vector<BenchmarkProfile> v;

    // mcf's bimodal critical-word distribution (Fig. 4: words 0 and 3).
    const std::array<double, 8> mcf_dist = {0.40, 0.04, 0.04, 0.30,
                                            0.05, 0.07, 0.05, 0.05};
    // Word-0-dominant distribution with mass p on word 0 and the rest
    // spread uniformly (aligned records / early-field accesses).
    auto w0 = [](double p) {
        std::array<double, 8> d;
        d.fill((1.0 - p) / 7.0);
        d[0] = p;
        return d;
    };

    // Pattern vocabulary (see file comment in pattern.hh):
    //  - stream(w, 8, win): full-line streaming.  Prefetch-friendly and
    //    *second-access-quick*: words 1-7 are touched right after word 0,
    //    so these accesses wait on the slow fragment under CWF.
    //  - stream(w, 64, win): one-word-per-line column/record sweeps;
    //    word 0 is the only word touched soon (the paper's gap analysis,
    //    Section 6.1.1) - the CWF sweet spot.
    //  - chase(...): dependent pointer walks; linked structures keep the
    //    next pointer in the first field, so chase distributions are
    //    word-0-heavy unless the code hops into record interiors.
    //  - random(...): independent gathers (sparse/indexed accesses).

    // ---------------- NAS Parallel Benchmarks ----------------
    v.push_back(make("cg", "NPB", 0.25,
                     {random(0.18, 96 * kMiB, w0(0.70)),
                      stream(0.03, 8, 128 * kMiB), hot(0.73)},
                     "sparse CG: indexed gathers of aligned records plus "
                     "row sweeps; strong word-0 bias (Fig. 4)"));
    v.push_back(make("is", "NPB", 0.35,
                     {random(0.18, 64 * kMiB, uniformWordDist()),
                      stream(0.08, 64, 96 * kMiB),
                      stream(0.12, 8, 96 * kMiB), hot(0.62)},
                     "integer bucket sort: scatters with weak word bias"));
    v.push_back(make("ep", "NPB", 0.20,
                     {stream(0.01, 8, 64 * kMiB), hot(0.99)},
                     "embarrassingly parallel: negligible DRAM traffic"));
    v.push_back(make("lu", "NPB", 0.30,
                     {random(0.12, 128 * kMiB, w0(0.80)),
                      stream(0.03, 8, 128 * kMiB), hot(0.85)},
                     "LU factorisation: panel sweeps, column walks"));
    v.push_back(make("mg", "NPB", 0.30,
                     {random(0.14, 128 * kMiB, w0(0.75)),
                      stream(0.04, 8, 192 * kMiB),
                      stream(0.02, 2048, 128 * kMiB), hot(0.80)},
                     "multigrid: unit stride + grid-plane strides"));
    v.push_back(make("sp", "NPB", 0.30,
                     {random(0.13, 96 * kMiB, w0(0.75)),
                      stream(0.04, 8, 160 * kMiB),
                      stream(0.03, 24, 64 * kMiB), hot(0.80)},
                     "scalar penta-diagonal: mostly unit stride"));

    // ---------------- STREAM ----------------
    v.push_back(make("stream", "STREAM", 0.40,
                     {stream(0.70, 8, 256 * kMiB),
                      stream(0.30, 64, 256 * kMiB)},
                     "Copy/Scale/Sum/Triad over multiple large arrays"));

    // ---------------- SPEC CPU2006 ----------------
    v.push_back(make("astar", "SPEC2006", 0.25,
                     {chase(0.05, 96 * kMiB, w0(0.55)),
                      stream(0.10, 8, 64 * kMiB),
                      random(0.03, 64 * kMiB, w0(0.60)), hot(0.82)},
                     "path-finding: grid scans + open-list chasing"));
    v.push_back(make("bzip2", "SPEC2006", 0.30,
                     {random(0.014, 48 * kMiB, uniformWordDist()),
                      stream(0.04, 8, 48 * kMiB), hot(0.946)},
                     "low bandwidth, weak word-0 bias: regresses under RL"));
    v.push_back(make("dealII", "SPEC2006", 0.25,
                     {stream(0.06, 8, 48 * kMiB),
                      chase(0.008, 48 * kMiB, w0(0.60)), hot(0.932)},
                     "FEM: word-0 heavy but second words touched early "
                     "(full-line streams), limiting the CWF gain"));
    v.push_back(make("gromacs", "SPEC2006", 0.25,
                     {stream(0.07, 8, 48 * kMiB),
                      random(0.02, 48 * kMiB, w0(0.70)), hot(0.91)},
                     "molecular dynamics: small hot neighbour lists"));
    v.push_back(make("gobmk", "SPEC2006", 0.25,
                     {stream(0.03, 8, 32 * kMiB),
                      random(0.01, 48 * kMiB, uniformWordDist()),
                      hot(0.96)},
                     "game tree: low bandwidth, scattered boards"));
    v.push_back(make("hmmer", "SPEC2006", 0.25,
                     {random(0.10, 64 * kMiB, w0(0.90)),
                      stream(0.02, 8, 64 * kMiB), hot(0.88)},
                     "90% stride-0 accesses (paper appendix): word 0 "
                     "dominates and later words are rarely needed soon"));
    v.push_back(make("h264ref", "SPEC2006", 0.30,
                     {stream(0.10, 8, 48 * kMiB),
                      stream(0.04, 16, 48 * kMiB), hot(0.86)},
                     "video: line-aligned block copies"));
    v.push_back(make("lbm", "SPEC2006", 0.45,
                     {stream(0.14, 136, 192 * kMiB),
                      stream(0.16, 8, 192 * kMiB), hot(0.70)},
                     "lattice-Boltzmann: 19-field struct walks rotate the "
                     "first-touch word (weak word-0 bias)"));
    v.push_back(make("leslie3d", "SPEC2006", 0.30,
                     {random(0.15, 192 * kMiB, w0(0.85)),
                      stream(0.03, 8, 192 * kMiB), hot(0.82)},
                     "CFD: column sweeps make word 0 dominant (Fig. 3a) "
                     "and later words arrive before they are needed"));
    v.push_back(make("libquantum", "SPEC2006", 0.25,
                     {random(0.16, 256 * kMiB, w0(0.85)),
                      stream(0.03, 8, 256 * kMiB), hot(0.81)},
                     "quantum register sweep: pure streaming, word 0"));
    v.push_back(make("mcf", "SPEC2006", 0.20,
                     {chase(0.05, 512 * kMiB, mcf_dist),
                      chase(0.05, 640 * kKiB, mcf_dist),
                      chase(0.10, 128 * kKiB, mcf_dist),
                      stream(0.08, 8, 64 * kMiB), hot(0.72)},
                     "network simplex pointer chasing: words 0/3 critical "
                     "(Fig. 3b), dependent misses; the 640 KB arc window "
                     "(8 cores x 640 KB thrashes the shared 4 MB L2) is "
                     "re-fetched repeatedly, which is what adaptive "
                     "placement (RL AD) exploits"));
    v.push_back(make("milc", "SPEC2006", 0.35,
                     {stream(0.10, 272, 160 * kMiB),
                      random(0.05, 96 * kMiB, uniformWordDist()),
                      stream(0.10, 8, 96 * kMiB), hot(0.75)},
                     "lattice QCD: SU(3) struct strides spread criticality"));
    v.push_back(make("omnetpp", "SPEC2006", 0.30,
                     {chase(0.06, 96 * kMiB, uniformWordDist()),
                      chase(0.10, 128 * kKiB, uniformWordDist()),
                      hot(0.84)},
                     "discrete event simulation: heap chasing, uniform "
                     "critical words"));
    v.push_back(make("soplex", "SPEC2006", 0.25,
                     {stream(0.12, 8, 96 * kMiB),
                      random(0.06, 96 * kMiB, w0(0.60)),
                      stream(0.03, 520, 64 * kMiB),
                      chase(0.02, 64 * kMiB, w0(0.50)), hot(0.77)},
                     "simplex LP: column sweeps + sparse row chases"));
    v.push_back(make("sjeng", "SPEC2006", 0.25,
                     {stream(0.02, 8, 32 * kMiB),
                      random(0.012, 48 * kMiB, uniformWordDist()),
                      hot(0.968)},
                     "chess: hash probes, low bandwidth"));
    v.push_back(make("tonto", "SPEC2006", 0.25,
                     {stream(0.11, 8, 48 * kMiB),
                      chase(0.008, 32 * kMiB, w0(0.60)), hot(0.882)},
                     "quantum chemistry: word-0 heavy, early reuse limits "
                     "the CWF win"));
    v.push_back(make("xalancbmk", "SPEC2006", 0.25,
                     {chase(0.05, 96 * kMiB, uniformWordDist()),
                      chase(0.08, 128 * kKiB, uniformWordDist()),
                      hot(0.87)},
                     "XSLT: 80% of misses from nested pointer chasing "
                     "(paper appendix), uniform critical words"));
    v.push_back(make("zeusmp", "SPEC2006", 0.30,
                     {stream(0.16, 8, 128 * kMiB),
                      random(0.07, 96 * kMiB, w0(0.60)),
                      stream(0.02, 2056, 96 * kMiB), hot(0.75)},
                     "astro CFD: unit stride + plane strides"));
    v.push_back(make("GemsFDTD", "SPEC2006", 0.30,
                     {random(0.15, 128 * kMiB, w0(0.80)),
                      stream(0.03, 8, 192 * kMiB), hot(0.82)},
                     "FDTD field sweeps: word-0 dominant, high bandwidth"));

    // ---- global DRAM-pressure calibration ----
    // The paper's measurement quantum (2 M DRAM reads over ~540 M
    // instructions on 8 cores) implies a suite-average DRAM read rate
    // near 4 per kilo-instruction.  The raw pattern mixes above are
    // hotter than that, which saturates the DDR3 baseline's queues and
    // inflates every speedup.  Scale the cold (DRAM-reaching) component
    // of each profile down by a fixed factor; all-cold profiles (pure
    // streaming like STREAM) instead scale their memory fraction, so
    // relative criticality shapes are preserved either way.
    constexpr double kColdScale = 0.045;
    // Programs the paper treats as memory-insensitive run well under
    // 1 DRAM read per kilo-instruction; scale them deeper.
    const std::set<std::string> low_intensity{
        "bzip2", "dealII", "gromacs", "gobmk", "sjeng", "tonto",
        "h264ref", "ep"};
    for (auto &profile : v) {
        const double scale =
            kColdScale * (low_intensity.count(profile.name) ? 0.3 : 1.0);
        double hot_weight = 0;
        for (const auto &spec : profile.patterns) {
            const bool is_hot = spec.kind == PatternSpec::Kind::Stream &&
                                spec.windowBytes <= 64 * kKiB;
            hot_weight += is_hot ? spec.weight : 0.0;
        }
        if (hot_weight > 0) {
            // Scale the cold mass down and fold the removed mass into
            // the cache-resident component so the memory-op rate (and
            // thus the instruction mix) is unchanged.
            double removed = 0;
            for (auto &spec : profile.patterns) {
                const bool is_hot =
                    spec.kind == PatternSpec::Kind::Stream &&
                    spec.windowBytes <= 64 * kKiB;
                if (!is_hot) {
                    removed += spec.weight * (1.0 - scale);
                    spec.weight *= scale;
                }
            }
            for (auto &spec : profile.patterns) {
                const bool is_hot =
                    spec.kind == PatternSpec::Kind::Stream &&
                    spec.windowBytes <= 64 * kKiB;
                if (is_hot) {
                    spec.weight += removed * spec.weight / hot_weight;
                }
            }
        } else {
            profile.memFraction *= scale;
        }
    }
    return v;
}

} // namespace

const std::vector<BenchmarkProfile> &
all()
{
    static const std::vector<BenchmarkProfile> profiles = buildAll();
    return profiles;
}

const BenchmarkProfile &
byName(const std::string &name)
{
    for (const auto &p : all()) {
        if (p.name == name)
            return p;
    }
    std::string valid;
    for (const auto &p : all())
        valid += (valid.empty() ? "" : ", ") + p.name;
    fatal("unknown benchmark '", name, "'; valid names: ", valid);
}

std::vector<std::string>
names()
{
    std::vector<std::string> out;
    for (const auto &p : all())
        out.push_back(p.name);
    return out;
}

std::vector<std::string>
word0Winners()
{
    return {"cg", "lu", "mg", "sp", "GemsFDTD", "leslie3d", "libquantum",
            "stream", "hmmer"};
}

std::vector<std::string>
pointerChasers()
{
    return {"mcf", "omnetpp", "xalancbmk", "milc", "lbm"};
}

} // namespace suite

} // namespace hetsim::workloads
