/**
 * @file
 * Fault-injection & RAS subsystem tests (DESIGN.md section 14):
 *
 *  - hash-stream determinism: same seed => same fault sites and
 *    classes, different seed => different sites; zero rates => the
 *    model is disabled outright and makes zero draws;
 *  - codec-truth: detected/correctable come from the real codecs
 *    (byte parity detect-only on the fast path, SECDED corrects
 *    singles and detects doubles, chipkill corrects a whole symbol);
 *  - recovery-ladder accounting: driving every backend family at high
 *    rates until drain leaves the ledger balanced
 *    (injected = corrected + retried + escalated) with the protocol
 *    checker armed and clean;
 *  - graceful degradation: repeated persistent faults retire the fast
 *    sub-channel (CWF) and subsequent fills are served slow-only;
 *  - determinism at nonzero BER: same-seed runs produce bit-identical
 *    digests and full reports, and a pinned degraded-mode run matches
 *    its checked-in golden digest;
 *  - zero-rate guarantee: explicit zero rates leave all five golden
 *    digests byte-identical to the checked-in baselines, and no
 *    environment variable reaches a run's fault knobs.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "check/checker.hh"
#include "core/hetero_memory.hh"
#include "dram/dram_params.hh"
#include "fault/fault_model.hh"
#include "sim/golden.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::cwf;
using namespace hetsim::sim;
using dram::DeviceParams;
using check::Checker;
using check::Mode;
using check::Rule;

namespace
{

// ------------------------------------------------------ model-level

/** One observed injection, reduced to its deterministic identity. */
using Obs = std::tuple<fault::FaultClass, bool, bool, bool, std::uint64_t>;

std::vector<Obs>
observe(fault::FaultModel &model)
{
    std::vector<Obs> out;
    const fault::ReadPath paths[] = {fault::ReadPath::FastCritical,
                                     fault::ReadPath::SlowBulk};
    for (const auto path : paths) {
        for (std::uint64_t line = 0; line < 32; ++line) {
            dram::DramCoord coord;
            coord.channel = static_cast<std::uint8_t>(line % 4);
            coord.bank = static_cast<std::uint8_t>(line % 8);
            coord.row = static_cast<std::uint32_t>(line / 4);
            // Three accesses per site so per-site sequence numbers (the
            // transient re-draw stream) are part of the comparison.
            for (int rep = 0; rep < 3; ++rep) {
                const fault::Injection inj =
                    model.onRead(path, line << kLineShift, coord, 100);
                out.emplace_back(inj.cls, inj.detected, inj.correctable,
                                 inj.persistent, inj.siteKey);
            }
        }
    }
    return out;
}

fault::FaultParams
highRates()
{
    fault::FaultParams p;
    p.transientBer = 0.2;
    p.doubleBer = 0.05;
    p.stuckCellRate = 0.05;
    p.rowFaultRate = 0.02;
    p.busErrorRate = 0.05;
    p.seed = 7;
    return p;
}

TEST(FaultModel, SameSeedSameFaultSites)
{
    fault::FaultModel a(highRates());
    fault::FaultModel b(highRates());
    EXPECT_EQ(observe(a), observe(b));
}

TEST(FaultModel, DifferentSeedMovesFaultSites)
{
    fault::FaultModel a(highRates());
    fault::FaultParams other = highRates();
    other.seed = 8;
    fault::FaultModel b(other);
    EXPECT_NE(observe(a), observe(b));
}

TEST(FaultModel, ZeroRateModelIsDisabled)
{
    fault::FaultParams p;
    fault::FaultModel model(p);
    EXPECT_FALSE(model.enabled());
    dram::DramCoord coord;
    const fault::Injection inj =
        model.onRead(fault::ReadPath::SlowBulk, 0x1000, coord, 0);
    EXPECT_FALSE(inj.faulty());
    EXPECT_EQ(model.ledger().injected.value(), 0u);
    EXPECT_TRUE(model.ledgerBalanced());
}

TEST(FaultModel, FastPathParityIsDetectOnly)
{
    fault::FaultParams p;
    p.transientBer = 1.0;
    p.seed = 3;
    fault::FaultModel model(p);
    for (std::uint64_t line = 0; line < 16; ++line) {
        dram::DramCoord coord;
        const fault::Injection inj = model.onRead(
            fault::ReadPath::FastCritical, line << kLineShift, coord, 0);
        ASSERT_TRUE(inj.faulty());
        EXPECT_EQ(inj.cls, fault::FaultClass::TransientBit);
        EXPECT_TRUE(inj.detected);
        EXPECT_FALSE(inj.correctable) << "byte parity cannot correct";
        EXPECT_FALSE(inj.persistent);
    }
}

TEST(FaultModel, SecdedCorrectsSinglesDetectsDoubles)
{
    fault::FaultParams single;
    single.transientBer = 1.0;
    single.seed = 3;
    fault::FaultModel singles(single);

    fault::FaultParams dbl;
    dbl.doubleBer = 1.0;
    dbl.seed = 3;
    fault::FaultModel doubles(dbl);

    for (std::uint64_t line = 0; line < 16; ++line) {
        dram::DramCoord coord;
        const fault::Injection s = singles.onRead(
            fault::ReadPath::SlowBulk, line << kLineShift, coord, 0);
        ASSERT_TRUE(s.faulty());
        EXPECT_TRUE(s.detected);
        EXPECT_TRUE(s.correctable) << "SECDED corrects a single flip";

        const fault::Injection d = doubles.onRead(
            fault::ReadPath::SlowBulk, line << kLineShift, coord, 0);
        ASSERT_TRUE(d.faulty());
        EXPECT_EQ(d.cls, fault::FaultClass::TransientDouble);
        EXPECT_TRUE(d.detected);
        EXPECT_FALSE(d.correctable) << "SECDED only detects a double";
    }
}

TEST(FaultModel, SecdedRowFaultIsUncorrectableAndPersistent)
{
    fault::FaultParams p;
    p.rowFaultRate = 1.0;
    p.seed = 3;
    fault::FaultModel model(p);
    dram::DramCoord coord;
    coord.row = 42;
    const fault::Injection inj =
        model.onRead(fault::ReadPath::SlowBulk, 0x4000, coord, 0);
    ASSERT_TRUE(inj.faulty());
    EXPECT_EQ(inj.cls, fault::FaultClass::RowFault);
    EXPECT_TRUE(inj.persistent);
    EXPECT_TRUE(inj.detected);
    EXPECT_FALSE(inj.correctable)
        << "multi-bit row damage exceeds SECDED";
    // Same row, different line: the row *is* the fault site.
    const fault::Injection again =
        model.onRead(fault::ReadPath::SlowBulk, 0x8000, coord, 1);
    ASSERT_TRUE(again.faulty());
    EXPECT_EQ(again.siteKey, inj.siteKey);
}

TEST(FaultModel, ChipkillCorrectsRowAndSingleDetectsDouble)
{
    fault::FaultParams base;
    base.slowEcc = fault::SlowEccKind::Chipkill;
    base.seed = 3;

    fault::FaultParams row = base;
    row.rowFaultRate = 1.0;
    fault::FaultModel rows(row);

    fault::FaultParams single = base;
    single.transientBer = 1.0;
    fault::FaultModel singles(single);

    fault::FaultParams dbl = base;
    dbl.doubleBer = 1.0;
    fault::FaultModel doubles(dbl);

    for (std::uint64_t line = 0; line < 16; ++line) {
        dram::DramCoord coord;
        coord.row = static_cast<std::uint32_t>(line);
        const fault::Injection r = rows.onRead(
            fault::ReadPath::SlowBulk, line << kLineShift, coord, 0);
        ASSERT_TRUE(r.faulty());
        EXPECT_TRUE(r.correctable)
            << "one dead chip stays inside a chipkill symbol";

        const fault::Injection s = singles.onRead(
            fault::ReadPath::SlowBulk, line << kLineShift, coord, 0);
        ASSERT_TRUE(s.faulty());
        EXPECT_TRUE(s.correctable);

        const fault::Injection d = doubles.onRead(
            fault::ReadPath::SlowBulk, line << kLineShift, coord, 0);
        ASSERT_TRUE(d.faulty());
        EXPECT_TRUE(d.detected);
        EXPECT_FALSE(d.correctable)
            << "two corrupted symbols exceed SSC correction";
    }
}

TEST(FaultModel, LegacyAliasHitsOnlyTheFastPathAndNeverDegrades)
{
    fault::FaultParams p;
    p.fastExtraTransient = 1.0; // every critical word fails parity
    p.degradeThreshold = 1;
    p.seed = 3;
    fault::FaultModel model(p);
    EXPECT_TRUE(model.enabled());
    dram::DramCoord coord;
    const fault::Injection fast =
        model.onRead(fault::ReadPath::FastCritical, 0x1000, coord, 0);
    ASSERT_TRUE(fast.faulty());
    EXPECT_FALSE(fast.persistent);
    EXPECT_FALSE(model.noteSiteFault(fast))
        << "legacy-alias transients must never trip degradation";
    const fault::Injection slow =
        model.onRead(fault::ReadPath::SlowBulk, 0x1000, coord, 0);
    EXPECT_FALSE(slow.faulty()) << "alias scopes to the fast path only";
}

TEST(FaultModel, RetryDelayBacksOffExponentially)
{
    EXPECT_EQ(fault::FaultModel::retryDelay(1), 32u);
    EXPECT_EQ(fault::FaultModel::retryDelay(2), 64u);
    EXPECT_EQ(fault::FaultModel::retryDelay(3), 128u);
}

TEST(FaultParams, CacheKeyChangesOnlyForNonDefaultKnobs)
{
    SystemParams base;
    base.mem = MemConfig::CwfRL;
    const std::string clean = base.cacheKey();
    EXPECT_EQ(clean.find("/fl"), std::string::npos)
        << "default fault knobs must not perturb memo keys";

    SystemParams faulted = base;
    faulted.fault.transientBer = 0.01;
    const std::string dirty = faulted.cacheKey();
    EXPECT_NE(dirty.find("/fl"), std::string::npos);
    EXPECT_NE(clean, dirty);
}

TEST(FaultParams, CacheKeyDistinguishesFastExtraTransient)
{
    // Memoised runs at two critical-word parity-fail rates must not
    // share a cache entry.
    SystemParams low;
    low.mem = MemConfig::CwfRL;
    low.fault.fastExtraTransient = 0.01;
    SystemParams high = low;
    high.fault.fastExtraTransient = 0.25;
    EXPECT_NE(low.cacheKey(), high.cacheKey());
}

TEST(FaultParams, EnvironmentDoesNotReachTheRun)
{
    // Fault knobs come from SystemParams alone: a stray HETSIM_FAULT_*
    // variable (even a malformed one) changes neither the memo key nor
    // the built backend.
    setenv("HETSIM_FAULT_TRANSIENT", "0.25", 1);
    setenv("HETSIM_FAULT_SCOPE", "fastslow", 1);
    const std::string key = SystemParams{}.cacheKey();
    SystemParams params;
    params.mem = MemConfig::CwfRL;
    const auto backend = buildBackend(params);
    unsetenv("HETSIM_FAULT_TRANSIENT");
    unsetenv("HETSIM_FAULT_SCOPE");
    EXPECT_EQ(key.find("/fl"), std::string::npos) << key;
    ASSERT_NE(backend->faultModel(), nullptr);
    EXPECT_FALSE(backend->faultModel()->enabled());
}

// ------------------------------------------- backend ladder property

struct Event
{
    enum Kind { Critical, Complete } kind;
    std::uint64_t mshrId;
    Tick at;
    bool parityOk;
};

/** Drive @p mem with @p fills distinct-line fills until fully drained,
 *  recording delivered events; asserts the run terminates. */
template <typename Backend>
std::vector<Event>
driveToIdle(Backend &mem, unsigned fills)
{
    std::vector<Event> events;
    mem.setCallbacks(MemoryBackend::Callbacks{
        [&](std::uint64_t id, Tick at, bool ok) {
            events.push_back(Event{Event::Critical, id, at, ok});
        },
        [&](std::uint64_t id, Tick at) {
            events.push_back(Event{Event::Complete, id, at, true});
        },
    });
    unsigned injected = 0;
    Tick t = 0;
    while (injected < fills || !mem.idle()) {
        if (injected < fills && t % 40 == 0 &&
            mem.canAcceptFill(injected * 64ULL)) {
            mem.requestFill(MemoryBackend::FillRequest{injected * 64ULL, 0,
                                                       false, 0, injected},
                            t);
            injected += 1;
        }
        mem.tick(t);
        t += 1;
        EXPECT_LT(t, 10'000'000u) << "fault ladder failed to drain";
        if (t >= 10'000'000u)
            break;
    }
    return events;
}

unsigned
countKind(const std::vector<Event> &events, Event::Kind kind)
{
    unsigned n = 0;
    for (const auto &e : events)
        n += e.kind == kind;
    return n;
}

/** Ledger balance + armed-checker cleanliness after a full drain. */
void
expectLadderClean(const fault::FaultModel &model, const char *what)
{
    const auto &lg = model.ledger();
    EXPECT_GT(lg.injected.value(), 0u) << what;
    EXPECT_TRUE(model.ledgerBalanced())
        << what << ": injected " << lg.injected.value() << " != corrected "
        << lg.corrected.value() << " + retried " << lg.retried.value()
        << " + escalated " << lg.escalated.value();
    Checker::instance().finalizeAll();
    EXPECT_EQ(Checker::instance().count(Rule::Fault), 0u) << what;
    EXPECT_TRUE(Checker::instance().violations().empty())
        << what << ":\n"
        << Checker::instance().report();
}

class FaultLadder : public ::testing::Test
{
  protected:
    void SetUp() override { Checker::instance().enable(Mode::Collect); }
    void TearDown() override { Checker::instance().disable(); }
};

TEST_F(FaultLadder, CwfLedgerBalancesUnderArmedChecker)
{
    CwfHeteroMemory::Params p;
    p.configName = "RL";
    p.slowDevice = DeviceParams::lpddr2_800();
    p.fastDevice = DeviceParams::rldram3();
    p.fault = highRates();
    p.fault.maxRetries = 2;
    CwfHeteroMemory mem(p, std::make_unique<StaticLayout>());

    const auto events = driveToIdle(mem, 64);
    EXPECT_EQ(countKind(events, Event::Complete), 64u);
    EXPECT_LE(countKind(events, Event::Critical), 64u);
    EXPECT_GT(mem.faultModel()->ledger().retried.value(), 0u)
        << "uncorrectable bulk errors must exercise the retry path";
    expectLadderClean(*mem.faultModel(), "cwf");
}

TEST_F(FaultLadder, HomogeneousLedgerBalancesUnderArmedChecker)
{
    HomogeneousMemory::Params p;
    p.device = DeviceParams::ddr3_1600();
    p.fault = highRates();
    p.fault.maxRetries = 2;
    HomogeneousMemory mem(p);

    const auto events = driveToIdle(mem, 64);
    EXPECT_EQ(countKind(events, Event::Complete), 64u);
    EXPECT_EQ(countKind(events, Event::Critical), 0u);
    expectLadderClean(*mem.faultModel(), "homogeneous");
}

// -------------------------------------------------- degraded service

TEST_F(FaultLadder, CwfPersistentFaultRetiresFastSubChannel)
{
    CwfHeteroMemory::Params p;
    p.configName = "RL";
    p.slowDevice = DeviceParams::lpddr2_800();
    p.fastDevice = DeviceParams::rldram3();
    p.fault.rowFaultRate = 1.0; // every row, fast and slow, is bad
    p.fault.degradeThreshold = 1;
    p.fault.seed = 3;
    CwfHeteroMemory mem(p, std::make_unique<StaticLayout>());

    std::vector<Event> events;
    mem.setCallbacks(MemoryBackend::Callbacks{
        [&](std::uint64_t id, Tick at, bool ok) {
            events.push_back(Event{Event::Critical, id, at, ok});
        },
        [&](std::uint64_t id, Tick at) {
            events.push_back(Event{Event::Complete, id, at, true});
        },
    });

    EXPECT_FALSE(mem.degradedMode());
    mem.requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 1}, 0);
    for (Tick t = 0; t <= 20000; ++t)
        mem.tick(t);

    // First fill: parity caught the fast fault, the early wake was
    // cancelled, and the word was served off the bulk copy.
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].kind, Event::Critical);
    EXPECT_FALSE(events[0].parityOk);
    EXPECT_EQ(events[1].kind, Event::Complete);

    // The persistent fault crossed degradeThreshold: sub 0 is retired.
    EXPECT_TRUE(mem.degradedMode());
    EXPECT_TRUE(mem.fastSubRetired(0));
    EXPECT_EQ(mem.plannedCriticalWord(0x1000, 3, true), kNoFastWord);
    EXPECT_EQ(mem.faultModel()->ledger().retiredRegions.value(), 1u);
    // The bulk copy sits in a bad row too: its ladder spent the retry
    // budget and escalated, and the line was still delivered.
    EXPECT_GT(mem.faultModel()->ledger().escalated.value(), 0u);

    // Second fill to the retired sub is served slow-only: no critical
    // fragment, no parity exposure, completion still delivered.
    events.clear();
    ASSERT_TRUE(mem.canAcceptFill(0x1000));
    mem.requestFill(MemoryBackend::FillRequest{0x1000, 0, false, 0, 2},
                    30000);
    for (Tick t = 30000; t <= 60000; ++t)
        mem.tick(t);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].kind, Event::Complete);
    EXPECT_EQ(mem.faultModel()->ledger().degradedFills.value(), 1u);
    EXPECT_GE(mem.faultModel()->degradedLatency().total(), 1u);
    EXPECT_TRUE(mem.faultModel()->ledgerBalanced());

    Checker::instance().finalizeAll();
    EXPECT_TRUE(Checker::instance().violations().empty())
        << Checker::instance().report();
}

// --------------------------------------------- system-level goldens

std::string
goldenPath(const std::string &key)
{
    return std::string(HETSIM_GOLDEN_DIR) + "/" + key + ".json";
}

bool
regenRequested()
{
    const char *env = std::getenv("HETSIM_REGEN_GOLDEN");
    return env != nullptr && env[0] != '\0' && env[0] != '0';
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return {};
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Golden runs with fault rates set on their SystemParams (never the
 *  environment: fault injection has no environment knobs). */
class FaultEnv : public ::testing::Test
{
  protected:
    static constexpr double kNonzero[5] = {0.02, 0.005, 0.002, 0.0005,
                                           0.005};

    /** goldenParams(spec) with the five injection rates @p rates
     *  (transient, double, stuck, row, bus). */
    static SystemParams
    faulted(const GoldenSpec &spec, const double (&rates)[5])
    {
        SystemParams params = goldenParams(spec);
        params.fault.transientBer = rates[0];
        params.fault.doubleBer = rates[1];
        params.fault.stuckCellRate = rates[2];
        params.fault.rowFaultRate = rates[3];
        params.fault.busErrorRate = rates[4];
        return params;
    }
};

TEST_F(FaultEnv, NonzeroBerInjectsIntoGoldenRuns)
{
    const GoldenSpec &spec = goldenSpecs()[2]; // cwf_rl
    System system(faulted(spec, kNonzero),
                  workloads::suite::byName(spec.benchmark), kGoldenCores);
    runSimulation(system, spec.run);
    ASSERT_NE(system.backend().faultModel(), nullptr);
    EXPECT_GT(system.backend().faultModel()->ledger().injected.value(), 0u)
        << "rates set on SystemParams::fault injected nothing in the "
           "built backend";
}

TEST_F(FaultEnv, EventAndTickEnginesBitIdenticalAtNonzeroBer)
{
    // Compares the plain tick against the HETSIM_PROFILE-timed tick,
    // the main loop's two stepping paths, with faults injected: both
    // must schedule retries and backoffs identically, since profiling
    // only observes.
    for (const auto &spec : goldenSpecs()) {
        if (spec.config != MemConfig::CwfRL &&
            spec.config != MemConfig::BaselineDDR3)
            continue; // a CWF and a whole-line backend keep it fast
        const SystemParams params = faulted(spec, kNonzero);
        setenv("HETSIM_PROFILE", "1", 1);
        const GoldenOutcome profiled = runGolden(spec, params);
        setenv("HETSIM_PROFILE", "0", 1);
        const GoldenOutcome plain = runGolden(spec, params);
        unsetenv("HETSIM_PROFILE");
        EXPECT_EQ(profiled.digest, plain.digest)
            << spec.key
            << ": faulted digest differs between the plain and the "
               "HETSIM_PROFILE-timed tick";
        EXPECT_EQ(profiled.fullReport, plain.fullReport)
            << spec.key
            << ": faulted JSON report differs between the plain and the "
               "HETSIM_PROFILE-timed tick";
    }
}

TEST_F(FaultEnv, SameSeedRunsBitIdenticalAtNonzeroBer)
{
    const GoldenSpec &spec = goldenSpecs()[2]; // cwf_rl
    const SystemParams params = faulted(spec, kNonzero);
    const GoldenOutcome a = runGolden(spec, params);
    const GoldenOutcome b = runGolden(spec, params);
    EXPECT_EQ(a.digest, b.digest)
        << "two faulted runs with the same SystemParams differ in digest";
    EXPECT_EQ(a.fullReport, b.fullReport)
        << "two faulted runs with the same SystemParams differ in JSON "
           "report";
}

TEST_F(FaultEnv, ExplicitZeroRatesKeepAllGoldenDigests)
{
    if (regenRequested())
        GTEST_SKIP() << "baselines being regenerated";
    // Explicit zeros must be indistinguishable from an absent subsystem:
    // all five digests stay byte-identical to the checked-in baselines.
    for (const auto &spec : goldenSpecs()) {
        const GoldenOutcome got =
            runGolden(spec, faulted(spec, {0, 0, 0, 0, 0}));
        const std::string expected = readFile(goldenPath(spec.key));
        ASSERT_FALSE(expected.empty())
            << goldenPath(spec.key) << " missing";
        EXPECT_EQ(expected, got.digest)
            << spec.key
            << ": explicit zero fault rates moved the checked-in digest";
    }
}

TEST(FaultGolden, DegradedModeRunMatchesPinnedDigest)
{
    // A pinned high-persistent-rate run: fast regions retire mid-run and
    // a measurable fraction of fills is served slow-only.  The digest is
    // compared byte-for-byte so degraded-mode behaviour cannot drift
    // silently (bless intended changes with scripts/regen_golden.sh).
    SystemParams params;
    params.mem = MemConfig::CwfRL;
    params.seed = kGoldenSeed;
    params.fault.rowFaultRate = 0.05;
    params.fault.stuckCellRate = 0.01;
    params.fault.transientBer = 0.01;
    params.fault.degradeThreshold = 1;
    params.fault.maxRetries = 2;
    System system(params, workloads::suite::byName(kGoldenBenchmark),
                  kGoldenCores);
    const RunResult result = runSimulation(system, goldenRunConfig());

    const fault::FaultModel *fm = system.backend().faultModel();
    ASSERT_NE(fm, nullptr);
    EXPECT_GT(fm->ledger().retiredRegions.value(), 0u)
        << "the pinned rates must actually trip degradation";
    EXPECT_GT(fm->ledger().degradedFills.value(), 0u);

    const std::string digest = renderGoldenDigest(system, result);
    const std::string path = goldenPath("fault_degraded");
    if (regenRequested()) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out.good()) << "cannot write " << path;
        out << digest;
        GTEST_SKIP() << "regenerated " << path;
    }
    const std::string expected = readFile(path);
    ASSERT_FALSE(expected.empty())
        << path << " missing; run scripts/regen_golden.sh";
    EXPECT_EQ(expected, digest)
        << "degraded-mode golden drift; bless intended changes with "
           "scripts/regen_golden.sh";
}

} // namespace
