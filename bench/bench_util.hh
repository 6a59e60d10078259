/**
 * @file
 * Shared scaffolding for the paper driver's sections (one per
 * bench_<section>.cc): a standard header that states which paper
 * artifact is being regenerated, what the paper reports, and what
 * window its runs simulate.
 *
 * Every section prints an aligned human-readable table followed by a CSV
 * block (between "--- csv ---" markers) for downstream plotting.
 */

#ifndef HETSIM_BENCH_BENCH_UTIL_HH
#define HETSIM_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <iostream>
#include <string>

#include "common/table.hh"
#include "sim/experiments.hh"

namespace hetsim::bench
{

/** A section's header.  @p window states the window each of the
 *  section's runs simulates; a section that simulates nothing leaves
 *  it empty and prints no window line. */
inline void
printHeader(const std::string &artifact, const std::string &title,
            const std::string &paper_reports, const std::string &window = {})
{
    std::cout << "================================================\n"
              << artifact << ": " << title << "\n"
              << "paper reports: " << paper_reports << "\n";
    if (!window.empty())
        std::cout << window << "\n";
    std::cout << "================================================\n\n";
}

/** The header of a section whose runs execute at @p scale's quantum. */
inline void
printHeader(const std::string &artifact, const std::string &title,
            const std::string &paper_reports,
            const sim::ExperimentScale &scale)
{
    printHeader(artifact, title, paper_reports,
                "run quantum: " + std::to_string(scale.measureReads) +
                    " demand reads/workload (HETSIM_READS to change; the "
                    "paper used 2,000,000)");
}

/** A ratio normalised to a baseline as "<x>% below" or "<x>% above",
 *  so a rise never prints as a negative saving. */
inline std::string
versusBaseline(double norm)
{
    return Table::percent(std::abs(norm - 1)) +
           (norm <= 1 ? " below" : " above");
}

inline void
printTableAndCsv(const Table &table)
{
    std::cout << table.render() << "\n--- csv ---\n"
              << table.renderCsv() << "--- end csv ---\n";
}

/**
 * The paper driver's sections, in the order `paper` runs them.  Each
 * prints one artifact to stdout; the ones that sweep share @p runner's
 * memo, so a run an earlier section finished is not simulated again.
 */
void fig01a_homogeneous(sim::ExperimentRunner &runner);
void fig01b_latency_breakdown(sim::ExperimentRunner &runner);
void fig02_power_vs_utilization(sim::ExperimentRunner &runner);
void fig03_critical_word_lines(sim::ExperimentRunner &runner);
void fig04_critical_word_distribution(sim::ExperimentRunner &runner);
void fig06_cwf_throughput(sim::ExperimentRunner &runner);
void fig07_critical_word_latency(sim::ExperimentRunner &runner);
void fig08_rldram_service_fraction(sim::ExperimentRunner &runner);
void fig09_adaptive_oracle(sim::ExperimentRunner &runner);
void fig10_system_energy(sim::ExperimentRunner &runner);
void fig11_bw_vs_energy(sim::ExperimentRunner &runner);
void table01_config(sim::ExperimentRunner &runner);
void table02_timing(sim::ExperimentRunner &runner);
void sec61_random_mapping(sim::ExperimentRunner &runner);
void sec61_no_prefetcher(sim::ExperimentRunner &runner);
void sec71_page_placement(sim::ExperimentRunner &runner);
void sec72_malladi_lpdram(sim::ExperimentRunner &runner);
void ablation_fast_channel(sim::ExperimentRunner &runner);

} // namespace hetsim::bench

#endif // HETSIM_BENCH_BENCH_UTIL_HH
