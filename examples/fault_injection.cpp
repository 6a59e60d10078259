/**
 * @file
 * The CWF fault-tolerance story end-to-end (paper Section 4.2.3).
 *
 * Part 1 drives the real codecs: a 64-bit word is protected by byte
 * parity on the RLDRAM critical-word channel and by (72,64) SECDED on
 * the LPDDR2 channel; injected single- and double-bit faults show the
 * early-wakeup guard (parity), correction-on-arrival (SECDED) and the
 * detected-after-retire fail-stop case.
 *
 * Part 2 runs the full simulator with an injected parity-error rate and
 * shows early wakeups being suppressed without losing correctness or
 * completing fewer fills.
 */

#include <iostream>

#include "common/rng.hh"
#include "common/table.hh"
#include "ecc/parity.hh"
#include "ecc/secded.hh"
#include "sim/experiments.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;
using ecc::ByteParity;
using ecc::Secded7264;

namespace
{

const char *
statusName(Secded7264::Status s)
{
    switch (s) {
      case Secded7264::Status::Ok:
        return "clean";
      case Secded7264::Status::CorrectedData:
        return "single-bit data error corrected";
      case Secded7264::Status::CorrectedCheck:
        return "single-bit check error corrected";
      case Secded7264::Status::DetectedDouble:
        return "uncorrectable error detected (fail-stop)";
    }
    return "?";
}

void
codecWalkthrough()
{
    std::cout << "Part 1: the data path, for real\n"
              << "-------------------------------\n";
    const std::uint64_t critical = 0x1122334455667788ULL;
    const std::uint8_t parity = ByteParity::encode(critical);
    const std::uint8_t check = Secded7264::encode(critical);

    std::cout << "critical word 0x" << std::hex << critical << std::dec
              << "  parity=0x" << static_cast<int>(parity)
              << "  secded=0x" << static_cast<int>(check) << "\n\n";

    struct Scenario
    {
        const char *name;
        std::uint64_t corrupted;
    };
    const Scenario scenarios[] = {
        {"no fault", critical},
        {"1-bit fault on the RLDRAM channel", critical ^ (1ULL << 17)},
        {"2-bit fault, same byte (parity blind spot)",
         critical ^ 0x3ULL},
    };

    for (const auto &s : scenarios) {
        const bool parity_ok = ByteParity::check(s.corrupted, parity);
        std::cout << s.name << ":\n";
        std::cout << "  parity check before early wakeup: "
                  << (parity_ok ? "pass -> forward to waiting load"
                                : "FAIL -> hold until ECC arrives")
                  << "\n";
        // Whatever parity said, the full SECDED check runs when the
        // rest of the line (and the code word) arrives.
        const auto decoded = Secded7264::decode(s.corrupted, check);
        std::cout << "  SECDED on full-line arrival:      "
                  << statusName(decoded.status) << "\n";
        if (decoded.status == Secded7264::Status::CorrectedData) {
            std::cout << "  corrected data matches original:  "
                      << (decoded.data == critical ? "yes" : "NO")
                      << "\n";
        }
        std::cout << "\n";
    }
}

void
systemWithParityErrors()
{
    std::cout << "Part 2: injected parity-error rate in the simulator\n"
              << "---------------------------------------------------\n";
    Table t({"parity error rate", "early wakes", "blocked wakes",
             "demand fills", "aggregate IPC"});
    for (const double rate : {0.0, 0.01, 0.25, 1.0}) {
        SystemParams p = ExperimentRunner::paramsFor(MemConfig::CwfRL);
        p.fault.parityFailRate = rate;
        System system(p, workloads::suite::byName("leslie3d"), 8);
        RunConfig rc;
        rc.measureReads = 3000;
        rc.warmupReads = 800;
        const RunResult r = runSimulation(system, rc);
        const auto &h = system.hierarchy().stats();
        t.addRow({Table::percent(rate, 0),
                  std::to_string(h.earlyWakes.value()),
                  std::to_string(h.parityBlockedWakes.value()),
                  std::to_string(r.demandReads),
                  Table::num(r.aggIpc, 2)});
    }
    std::cout << t.render();
    std::cout
        << "\nA failed parity check only costs the early wakeup: the\n"
        << "load is woken when the SECDED-protected rest of the line\n"
        << "arrives, so fills always complete and coverage equals the\n"
        << "baseline ECC DIMM's (paper Section 4.2.3).\n";
}

} // namespace

int
main()
{
    codecWalkthrough();
    systemWithParityErrors();
    return 0;
}
