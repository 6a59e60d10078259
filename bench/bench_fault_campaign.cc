/**
 * @file
 * Fault-injection campaign: sweeps the transient bit-error rate (with
 * proportionally scaled double-bit, stuck-cell, row-fault and bus-error
 * rates) across the six golden configurations and reports the
 * resilience picture — per-class injection counts, the recovery-ladder
 * ledger (corrected / retried / escalated), retired fast regions, the
 * fraction of fills served degraded (slow-only), and the added p50/p99
 * critical-word latency versus the fault-free run of the same config.
 *
 * Every run executes under the armed protocol checker, so the ladder's
 * bookkeeping (no silently dropped fault, no commit on parity fail, HMC
 * packet ordering) is cross-validated while the campaign measures.
 */

#include "bench_util.hh"
#include "check/checker.hh"
#include "common/log.hh"
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

} // namespace

void
bench::fault_campaign(ExperimentRunner &)
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

    // Each run arms the checker itself; later sections get back the
    // checker state (HETSIM_CHECK / HETSIM_CHECK_MODE) found here.
    check::Checker &checker = check::Checker::instance();
    const bool was_enabled = checker.enabled();
    const check::Mode was_mode = checker.mode();

    const std::vector<double> bers = {0.0, 1e-4, 1e-3, 1e-2};

    Table t({"config", "ber", "injected", "transient", "double", "stuck",
             "row", "bus", "corrected", "retried", "escalated", "retired",
             "degraded frac", "cw p50", "cw p99", "+p50", "+p99"});

    for (const auto &spec : goldenSpecs()) {
        double base_p50 = 0.0;
        double base_p99 = 0.0;
        for (const double ber : bers) {
            SystemParams params;
            params.mem = spec.config;
            params.seed = kGoldenSeed;
            params.fault = faultsAt(ber);

            checker.enable(check::Mode::Abort);
            System system(params,
                          workloads::suite::byName(kGoldenBenchmark),
                          kGoldenCores);
            const RunResult result = runSimulation(system, window);

            const auto &hist =
                system.hierarchy().stats().criticalWordLatencyHist;
            const double p50 = hist.percentile(0.50);
            const double p99 = hist.percentile(0.99);
            if (ber == 0.0) {
                base_p50 = p50;
                base_p99 = p99;
            }

            const fault::FaultModel *fm = system.backend().faultModel();
            sim_assert(fm, "golden backends all expose a fault model");
            const auto &lg = fm->ledger();
            const double degraded_frac =
                result.demandReads
                    ? static_cast<double>(lg.degradedFills.value()) /
                          static_cast<double>(result.demandReads)
                    : 0.0;

            t.addRow({spec.key, Table::num(ber, 6),
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
                      Table::num(degraded_frac, 4), Table::num(p50, 1),
                      Table::num(p99, 1), Table::num(p50 - base_p50, 1),
                      Table::num(p99 - base_p99, 1)});

            // The run stops on its read quantum with fills (and possibly
            // parked re-reads) legitimately in flight, so skip the leak
            // finalizer; the armed checker already validated every
            // resolution against its injection during the run.
            checker.disable();
        }
    }

    if (was_enabled)
        checker.enable(was_mode);

    bench::printTableAndCsv(t);
}
