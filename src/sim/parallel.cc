#include "sim/parallel.hh"

#include <exception>

#include "common/sync.hh"
#include "common/thread_pool.hh"

namespace ccm
{

namespace
{

/** Sequential fallback: the calling thread runs every cell. */
SuiteReport
runSequential(const std::vector<std::string> &names,
              const SuiteTraceFactory &factory,
              const SystemConfig &config,
              const ParallelSuiteOptions &opts)
{
    SuiteReport report;
    report.rows.reserve(names.size());
    for (const auto &name : names) {
        const SystemConfig cfg =
            opts.configFor ? opts.configFor(name, config) : config;
        report.rows.push_back(
            runSuiteCell(name, factory, cfg, opts.instrument));
        if (opts.onRowDone)
            opts.onRowDone(report.rows.back());
    }
    return report;
}

} // namespace

SuiteReport
runSuiteParallel(const std::vector<std::string> &names,
                 const SuiteTraceFactory &factory,
                 const SystemConfig &config,
                 const ParallelSuiteOptions &opts)
{
    const std::size_t jobs = resolveJobCount(opts.jobs);
    if (jobs <= 1 || names.size() <= 1)
        return runSequential(names, factory, config, opts);

    SuiteReport report;
    report.rows.resize(names.size());

    // Contract point 1: instrument invocations are mutually excluded.
    Mutex instrument_mtx(LockRank::SuiteInstrumentGate,
                         "suite-instrument");
    SuiteInstrument serialized;
    if (opts.instrument) {
        serialized = [&](const std::string &name, MemorySystem &m) {
            MutexLock lock(instrument_mtx);
            opts.instrument(name, m);
        };
    }

    // Row slots are disjoint, so workers write them unlocked; the
    // done-flag handshake under `mtx` publishes each slot to the
    // calling thread before it reads the row.
    Mutex mtx(LockRank::SuiteRowDone, "suite-row-done");
    CondVar row_done;
    std::vector<char> done(names.size(), 0);

    ThreadPool pool(jobs < names.size() ? jobs : names.size());
    for (std::size_t i = 0; i < names.size(); ++i) {
        pool.submit([&, i] {
            SuiteRow row;
            try {
                const SystemConfig cfg =
                    opts.configFor ? opts.configFor(names[i], config)
                                   : config;
                row = runSuiteCell(names[i], factory, cfg,
                                   serialized);
            } catch (const std::exception &e) {
                // runSuiteCell already turns bad configs and trace
                // errors into row statuses; this is the last-resort
                // net (e.g. bad_alloc) that keeps the pool's no-throw
                // requirement.
                row.workload = names[i];
                row.status = Status::internal("suite cell failed: ",
                                              e.what());
            }
            report.rows[i] = std::move(row);
            {
                MutexLock lock(mtx);
                done[i] = 1;
            }
            row_done.notifyAll();
        });
    }

    // Contract point 3: completion delivery on the calling thread, in
    // names order, as soon as each prefix row is finished.
    for (std::size_t i = 0; i < names.size(); ++i) {
        {
            MutexLock lock(mtx);
            row_done.wait(
                mtx, [&]() CCM_REQUIRES(mtx) { return done[i] != 0; });
        }
        if (opts.onRowDone)
            opts.onRowDone(report.rows[i]);
    }
    pool.waitIdle();
    return report;
}

} // namespace ccm
