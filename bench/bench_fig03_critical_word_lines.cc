/**
 * @file
 * Figure 3 reproduction: per-line critical-word histograms for the most
 * accessed cache lines of a streaming program (leslie3d, Fig. 3a) and a
 * pointer chaser (mcf, Fig. 3b), demonstrating critical word regularity:
 * within a line, one or two words dominate.
 */

#include <algorithm>
#include <sstream>

#include "bench_util.hh"
#include "sim/system.hh"
#include "workloads/suite.hh"

using namespace hetsim;
using namespace hetsim::sim;

namespace
{

void
analyse(const std::string &bench, const ExperimentScale &scale)
{
    SystemParams params =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    params.trackPerLineCriticality = true;
    System system(params, workloads::suite::byName(bench), params.cores);
    (void)runSimulation(system, scale.runConfig(params.cores,
                                                params.cores));

    // Rank lines by total DRAM accesses.
    const auto &crit = system.hierarchy().lineCriticality();
    std::vector<std::pair<Addr, std::uint64_t>> ranked;
    for (const auto &[line, hist] : crit) {
        std::uint64_t total = 0;
        for (const auto n : hist)
            total += n;
        if (total >= 2)
            ranked.emplace_back(line, total);
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const auto &a, const auto &b) {
                  return a.second > b.second;
              });

    std::cout << bench << ": top accessed lines ("
              << std::min<std::size_t>(ranked.size(), 10)
              << " shown, " << crit.size() << " lines tracked)\n";
    Table t({"line", "accesses", "w0", "w1", "w2", "w3", "w4", "w5", "w6",
             "w7", "dominant"});
    double dominant_sum = 0;
    unsigned lines_with_dominance = 0;
    const std::size_t top = std::min<std::size_t>(ranked.size(), 10);
    for (std::size_t i = 0; i < top; ++i) {
        const auto &hist = crit.at(ranked[i].first);
        std::ostringstream line;
        line << "0x" << std::hex << (ranked[i].first >> kLineShift);
        std::vector<std::string> row{line.str(),
                                     std::to_string(ranked[i].second)};
        unsigned best = 0;
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            row.push_back(std::to_string(hist[w]));
            if (hist[w] > hist[best])
                best = w;
        }
        std::string dominant = "w";
        dominant += std::to_string(best);
        row.push_back(std::move(dominant));
        t.addRow(std::move(row));
    }

    // Regularity metric over all multi-access lines: share of accesses
    // going to each line's modal word.
    for (const auto &[line, total] : ranked) {
        const auto &hist = crit.at(line);
        const auto modal = *std::max_element(hist.begin(), hist.end());
        dominant_sum += static_cast<double>(modal) / total;
        lines_with_dominance += 2 * modal >= total;
    }
    std::cout << t.render();
    if (!ranked.empty()) {
        std::cout << "regularity: modal word takes "
                  << Table::percent(dominant_sum / ranked.size())
                  << " of a line's accesses on average; "
                  << Table::percent(
                         static_cast<double>(lines_with_dominance) /
                         ranked.size())
                  << " of lines have a >=50% dominant word\n\n";
    }
}

} // namespace

void
bench::fig03_critical_word_lines(ExperimentRunner &runner)
{
    bench::printHeader(
        "Figure 3", "critical words within highly-accessed lines",
        "for most cache lines some words are far more critical than "
        "others: leslie3d's lines are word-0 bound, mcf's split across "
        "words 0/3",
        runner.scale());
    analyse("leslie3d", runner.scale());
    analyse("mcf", runner.scale());
}
