#include "mt/shared_cache.hh"

#include "mct/classifying_cache.hh"

namespace ccm
{

SharedCacheStudy::SharedCacheStudy(std::size_t cache_bytes,
                                   unsigned assoc,
                                   unsigned line_bytes)
    : geom(cache_bytes, assoc, line_bytes)
{
}

SharedCacheResult
SharedCacheStudy::run(InterleavedTrace &trace)
{
    ClassifyingCache l1(ClassifyConfig{
        geom.sizeBytes(), geom.assoc(), geom.lineBytes()});
    // Which thread forced the most recent eviction in each set
    // (parallels the MCT entry).
    std::vector<unsigned> evictorThread(geom.numSets(), 0);

    SharedCacheResult res;
    res.perThread.assign(trace.threads(), ThreadShareStats{});

    trace.reset();
    unsigned tid = 0;
    while (const MemRecord *r = trace.next(tid)) {
        if (!r->isMem())
            continue;
        ThreadShareStats &ts = res.perThread[tid];
        ++ts.references;
        ++res.references;

        const ByteAddr addr = r->dataAddr();
        const StepOutcome out = l1.access(addr, r->isStore());
        if (out.hit)
            continue;

        ++ts.misses;
        ++res.misses;
        unsigned &evictor = evictorThread[geom.setOf(addr).value()];
        if (out.conflict()) {
            ++ts.conflictMisses;
            if (evictor != tid) {
                ++ts.crossThreadConflicts;
                ++res.crossThreadConflicts;
            }
        }
        // Remember who forced the line out: when its owner later
        // re-misses on it (the MCT match), a different evictor marks
        // the conflict as inter-thread interference.
        if (out.evicted)
            evictor = tid;
    }
    return res;
}

} // namespace ccm
