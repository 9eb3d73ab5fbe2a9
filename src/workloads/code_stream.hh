/**
 * @file
 * Synthetic instruction-fetch streams for the instruction-cache
 * application (paper §4: the techniques "should, in general, also
 * apply to the instruction cache").
 *
 * A CodeStreamWorkload emits one record per executed instruction
 * whose *address* is the instruction's PC (an I-fetch reference
 * stream).  Programs are built from straight-line functions laid out
 * at fixed addresses and called from a main loop; two functions laid
 * out a cache-size apart produce the classic I-cache conflict
 * ping-pong, and code footprints larger than the cache produce
 * capacity misses.
 */

#ifndef CCM_WORKLOADS_CODE_STREAM_HH
#define CCM_WORKLOADS_CODE_STREAM_HH

#include <string>
#include <vector>

#include "trace/source.hh"

namespace ccm
{

/** One function in the synthetic program. */
struct CodeFunction
{
    Addr entry;           ///< first instruction address
    std::size_t instrs;   ///< straight-line length (4-byte instrs)
};

/** Instruction-fetch stream over a fixed call sequence. */
class CodeStreamWorkload : public TraceSource
{
  public:
    /**
     * @param label workload name
     * @param functions the program's functions
     * @param call_sequence indices into @p functions, executed
     *        round-robin until @p total_instrs records are emitted
     * @param total_instrs trace length
     */
    CodeStreamWorkload(std::string label,
                       std::vector<CodeFunction> functions,
                       std::vector<unsigned> call_sequence,
                       std::size_t total_instrs);

    std::size_t nextBatch(MemRecord *out, std::size_t n) override;
    void reset() override;
    std::string name() const override { return label; }

    // ---- preset programs (16KB I-cache assumed) -------------------

    /** A hot loop that fits: near-zero miss rate. */
    static CodeStreamWorkload hotLoop(std::size_t instrs);

    /**
     * Two 2KB functions 16KB apart, called alternately: the classic
     * I-cache conflict ping-pong.
     */
    static CodeStreamWorkload collidingCalls(std::size_t instrs);

    /** 64KB of code executed round-robin: I-capacity misses. */
    static CodeStreamWorkload hugeCode(std::size_t instrs);

    /** Mixed: a hot loop + colliding helpers + a cold tail. */
    static CodeStreamWorkload mixed(std::size_t instrs);

  private:
    std::string label;
    std::vector<CodeFunction> funcs;
    std::vector<unsigned> seq;
    std::size_t total;

    std::size_t emitted = 0;
    std::size_t seqPos = 0;
    std::size_t instrInFunc = 0;
};

} // namespace ccm

#endif // CCM_WORKLOADS_CODE_STREAM_HH
