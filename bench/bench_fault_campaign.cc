/**
 * @file
 * Fault-injection campaign: sweeps the transient bit-error rate (with
 * proportionally scaled double-bit, stuck-cell, row-fault and bus-error
 * rates) across the five golden configurations and reports the
 * resilience picture — per-class injection counts, the recovery-ladder
 * ledger (corrected / retried / escalated), retired fast regions, the
 * fraction of fills served degraded (slow-only), and the added p50/p99
 * critical-word latency versus the fault-free run of the same config.
 *
 * Every run executes under the armed protocol checker, so the ladder's
 * bookkeeping (no silently dropped fault, no commit on parity fail) is
 * cross-validated while the campaign measures.  The runs are
 * independent and go through the runner's worker pool; rows print in
 * (config, BER) order whatever HETSIM_JOBS is.
 */

#include <future>

#include "bench_util.hh"
#include "check/checker.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "sim/golden.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

fault::FaultParams
faultsAt(double ber)
{
    // One knob scales the whole taxonomy: transients dominate (as in
    // field DRAM studies), persistent and bus classes ride along at
    // fixed fractions so every ladder path is exercised at each point.
    fault::FaultParams f;
    f.transientBer = ber;
    f.doubleBer = ber / 8;
    f.stuckCellRate = ber / 4;
    f.rowFaultRate = ber / 64;
    f.busErrorRate = ber / 8;
    return f;
}

/** What one (config, BER) run leaves for its table row. */
struct CampaignPoint
{
    fault::FaultModel::Ledger ledger;
    double degradedFrac = 0.0;
    double p50 = 0.0;
    double p99 = 0.0;
};

CampaignPoint
runPoint(const GoldenSpec &spec, double ber, const RunConfig &window)
{
    SystemParams params;
    params.mem = spec.config;
    params.seed = kGoldenSeed;
    params.fault = faultsAt(ber);

    System system(params, workloads::suite::byName(kGoldenBenchmark),
                  kGoldenCores);
    const RunResult result = runSimulation(system, window);

    const fault::FaultModel *fm = system.backend().faultModel();
    sim_assert(fm, "golden backends all expose a fault model");
    CampaignPoint point;
    point.ledger = fm->ledger();
    point.degradedFrac =
        result.demandReads
            ? static_cast<double>(point.ledger.degradedFills.value()) /
                  static_cast<double>(result.demandReads)
            : 0.0;
    const auto &hist = system.hierarchy().stats().criticalWordLatencyHist;
    point.p50 = hist.percentile(0.50);
    point.p99 = hist.percentile(0.99);
    return point;
}

} // namespace

void
bench::fault_campaign(ExperimentRunner &runner)
{
    const RunConfig window = goldenRunConfig();
    bench::printHeader(
        "Fault campaign", "BER sweep over the golden configurations",
        "every injected fault is corrected, retried or escalated; "
        "persistent faults degrade the fast tier instead of wedging it",
        "run window: " + std::to_string(window.measureReads) +
            " demand reads/run after " + std::to_string(window.warmupReads) +
            " warm-up reads, fixed (the golden window; HETSIM_READS does "
            "not apply)");

    const std::vector<double> bers = {0.0, 1e-4, 1e-3, 1e-2};
    const std::vector<GoldenSpec> &specs = goldenSpecs();

    // The checker is armed once around the whole pool; later sections
    // get back the checker state (HETSIM_CHECK / HETSIM_CHECK_MODE)
    // found here.  Runs stop on their read quantum with fills (and
    // possibly parked re-reads) legitimately in flight, so the leak
    // finalizer is skipped; the armed checker validates every
    // resolution against its injection during the run.
    check::Checker &checker = check::Checker::instance();
    const bool was_enabled = checker.enabled();
    const check::Mode was_mode = checker.mode();
    checker.enable(check::Mode::Abort);

    // One independent run per (config, BER) on the pool, kept in
    // (config, BER) order.
    std::vector<CampaignPoint> points(specs.size() * bers.size());
    {
        ThreadPool pool(runner.jobs());
        std::vector<std::future<void>> runs;
        for (std::size_t i = 0; i < points.size(); ++i) {
            runs.push_back(pool.submit([&, i] {
                points[i] = runPoint(specs[i / bers.size()],
                                     bers[i % bers.size()], window);
            }));
        }
        for (auto &f : runs)
            f.get();
    }
    checker.disable();
    if (was_enabled)
        checker.enable(was_mode);

    Table t({"config", "ber", "injected", "transient", "double", "stuck",
             "row", "bus", "corrected", "retried", "escalated", "retired",
             "degraded frac", "cw p50", "cw p99", "+p50", "+p99"});
    for (std::size_t c = 0; c < specs.size(); ++c) {
        // Each config's BER-0 run is the baseline of its latency deltas.
        const CampaignPoint &base = points[c * bers.size()];
        for (std::size_t b = 0; b < bers.size(); ++b) {
            const CampaignPoint &pt = points[c * bers.size() + b];
            const auto &lg = pt.ledger;
            t.addRow({specs[c].key, Table::num(bers[b], 6),
                      std::to_string(lg.injected.value()),
                      std::to_string(lg.transientBit.value()),
                      std::to_string(lg.transientDouble.value()),
                      std::to_string(lg.stuckBit.value()),
                      std::to_string(lg.rowFault.value()),
                      std::to_string(lg.busError.value()),
                      std::to_string(lg.corrected.value()),
                      std::to_string(lg.retried.value()),
                      std::to_string(lg.escalated.value()),
                      std::to_string(lg.retiredRegions.value()),
                      Table::num(pt.degradedFrac, 4), Table::num(pt.p50, 1),
                      Table::num(pt.p99, 1),
                      Table::num(pt.p50 - base.p50, 1),
                      Table::num(pt.p99 - base.p99, 1)});
        }
    }
    bench::printTableAndCsv(t);
}
