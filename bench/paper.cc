/**
 * @file
 * The paper driver: regenerates the paper's tables, figures and text
 * experiments in one process over one ExperimentRunner, so a run that
 * several sections need (the DDR3 baseline, the shared RL runs) is
 * simulated once.
 *
 * Usage:
 *   paper                  every section, in DESIGN.md section 4's order
 *   paper <section> ...    the named sections, in the order given
 *
 * Each section's output is preceded by a "######## <section>" line.  One
 * "json reports:" line before the first section says whether runs are
 * exported (HETSIM_JSON_DIR).  Armed with HETSIM_CHECK_MODE=collect, it
 * prints the validator's report to stderr at exit and exits non-zero if
 * a violation was recorded.
 */

#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "check/checker.hh"
#include "common/log.hh"

using namespace hetsim;

namespace
{

struct Section
{
    const char *name;
    void (*run)(sim::ExperimentRunner &);
};

const Section kSections[] = {
    {"fig01a_homogeneous", bench::fig01a_homogeneous},
    {"fig01b_latency_breakdown", bench::fig01b_latency_breakdown},
    {"fig02_power_vs_utilization", bench::fig02_power_vs_utilization},
    {"fig03_critical_word_lines", bench::fig03_critical_word_lines},
    {"fig04_critical_word_distribution",
     bench::fig04_critical_word_distribution},
    {"fig06_cwf_throughput", bench::fig06_cwf_throughput},
    {"fig07_critical_word_latency", bench::fig07_critical_word_latency},
    {"fig08_rldram_service_fraction", bench::fig08_rldram_service_fraction},
    {"fig09_adaptive_oracle", bench::fig09_adaptive_oracle},
    {"fig10_system_energy", bench::fig10_system_energy},
    {"fig11_bw_vs_energy", bench::fig11_bw_vs_energy},
    {"table01_config", bench::table01_config},
    {"table02_timing", bench::table02_timing},
    {"sec61_random_mapping", bench::sec61_random_mapping},
    {"sec61_no_prefetcher", bench::sec61_no_prefetcher},
    {"sec71_page_placement", bench::sec71_page_placement},
    {"sec72_malladi_lpdram", bench::sec72_malladi_lpdram},
    {"ablation_fast_channel", bench::ablation_fast_channel},
};

const Section &
sectionByName(const std::string &name)
{
    std::string valid;
    for (const Section &s : kSections) {
        if (name == s.name)
            return s;
        valid += valid.empty() ? "" : ", ";
        valid += s.name;
    }
    fatal("unknown section '", name, "'; valid sections: ", valid);
}

} // namespace

int
main(int argc, char **argv)
{
    // Resolve every name before the first section runs.
    std::vector<const Section *> chosen;
    for (int i = 1; i < argc; ++i)
        chosen.push_back(&sectionByName(argv[i]));
    if (chosen.empty()) {
        for (const Section &s : kSections)
            chosen.push_back(&s);
    }

    // The runner validates the environment (HETSIM_WORKLOADS, the
    // quantum, HETSIM_JSON_DIR) before anything is printed.
    sim::ExperimentRunner runner;

    // Only runs that go through the runner's memo are exported; the
    // sections that simulate on their own (or not at all) write none.
    if (const char *dir = std::getenv("HETSIM_JSON_DIR"); dir && *dir) {
        std::cout << "json reports: one per memoised (config,workload) "
                     "run in "
                  << dir << "/\n";
    } else {
        std::cout << "json reports: off (set HETSIM_JSON_DIR=<dir> to "
                     "export one report per memoised run)\n";
    }

    for (const Section *s : chosen) {
        std::cout << "######## " << s->name << "\n";
        s->run(runner);
    }
    std::cout.flush();
    return check::collectExitStatus();
}
