/**
 * @file
 * Section 7.1 reproduction: the page-placement alternative (Phadke-style
 * profile-guided placement of hot OS pages into a 0.5 GB RLDRAM3 channel
 * with three LPDDR2 channels for the rest, iso-pin / iso-chip-count).
 * The paper measures wide variance (-9.3% .. +11.2%, ~8% average) and
 * notes the top pages capture at most ~30% of accesses.
 */

#include <future>

#include "bench_util.hh"
#include "common/thread_pool.hh"

using namespace hetsim;
using namespace hetsim::sim;

void
bench::sec71_page_placement(ExperimentRunner &runner)
{
    bench::printHeader(
        "Section 7.1 (page placement)",
        "profile-guided hot-page placement vs CWF",
        "page placement averages ~8% with wide variance; the top 7.6% of "
        "pages capture at most ~30% of accesses",
        runner.scale());

    const SystemParams baseline =
        ExperimentRunner::paramsFor(MemConfig::BaselineDDR3);
    const SystemParams rl = ExperimentRunner::paramsFor(MemConfig::CwfRL);
    const std::vector<std::string> &wls = runner.workloads();

    // Offline profiling pass on the baseline, as in the paper: one
    // independent run per workload, on the pool, kept in workload order.
    std::vector<SystemParams> pp(
        wls.size(), ExperimentRunner::paramsFor(MemConfig::PagePlacement));
    {
        ThreadPool pool(runner.jobs());
        std::vector<std::future<void>> profiled;
        for (std::size_t i = 0; i < wls.size(); ++i) {
            profiled.push_back(pool.submit([&runner, &pp, &wls, i] {
                pp[i].hotPages = runner.profileHotPages(wls[i]);
            }));
        }
        for (auto &f : profiled)
            f.get();
    }
    std::vector<RunSpec> specs;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        specs.push_back(RunSpec{baseline, wls[i], 1});
        specs.push_back(RunSpec{baseline, wls[i], 0});
        specs.push_back(RunSpec{rl, wls[i], 0});
        specs.push_back(RunSpec{pp[i], wls[i], 0});
    }
    runner.prefetch(specs);

    Table t({"benchmark", "page placement", "RL (CWF)", "hot pages",
             "accesses to fast ch."});
    std::vector<double> pp_n, rl_n, hot_share;
    for (std::size_t i = 0; i < wls.size(); ++i) {
        const double n = runner.normalizedThroughput(pp[i], baseline, wls[i]);
        const double r = runner.normalizedThroughput(rl, baseline, wls[i]);
        pp_n.push_back(n);
        rl_n.push_back(r);
        hot_share.push_back(runner.sharedRun(pp[i], wls[i]).hotTierShare);
        t.addRow({wls[i], Table::num(n, 3), Table::num(r, 3),
                  std::to_string(pp[i].hotPages.size()),
                  Table::percent(hot_share.back())});
    }
    t.addRow({"MEAN", Table::num(mean(pp_n), 3), Table::num(mean(rl_n), 3),
              "-", Table::percent(mean(hot_share))});
    bench::printTableAndCsv(t);

    const auto minmax = std::minmax_element(pp_n.begin(), pp_n.end());
    std::cout << "\nmeasured: page placement mean "
              << Table::percent(mean(pp_n) - 1) << " (paper ~+8%), range "
              << Table::percent(*minmax.first - 1) << " .. "
              << Table::percent(*minmax.second - 1)
              << " (paper -9.3% .. +11.2%)\n";
}
