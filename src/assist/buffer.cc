#include "assist/buffer.hh"

#include "common/logging.hh"

namespace ccm
{

Status
AssistBuffer::validate(unsigned num_entries)
{
    if (num_entries == 0)
        return Status::badConfig("assist buffer needs at least one entry");
    return Status::ok();
}

AssistBuffer::AssistBuffer(unsigned num_entries, BufRepl repl_)
    : slots(num_entries), repl(repl_)
{
    fatalIfError(validate(num_entries));
}

BufEntry *
AssistBuffer::find(LineAddr line_addr)
{
    for (auto &e : slots) {
        if (e.valid && e.lineAddr == line_addr)
            return &e;
    }
    return nullptr;
}

const BufEntry *
AssistBuffer::find(LineAddr line_addr) const
{
    for (const auto &e : slots) {
        if (e.valid && e.lineAddr == line_addr)
            return &e;
    }
    return nullptr;
}

void
AssistBuffer::recordHit(BufEntry &e)
{
    e.lastUse = ++tick;
    e.used = true;
    ++nHits[idx(e.source)];
}

BufEvicted
AssistBuffer::insert(LineAddr line_addr, BufSource source,
                     bool conflict_bit, bool dirty, Cycle ready)
{
    // One scan: reject a resident line, and pick the first invalid
    // slot, else the oldest stamp (LRU or FIFO).
    BufEntry *free_slot = nullptr;
    BufEntry *oldest = nullptr;
    Count oldest_key = 0;
    for (auto &e : slots) {
        if (!e.valid) {
            if (!free_slot)
                free_slot = &e;
            continue;
        }
        if (e.lineAddr == line_addr)
            ccm_panic("AssistBuffer::insert of resident line");
        Count key = repl == BufRepl::Lru ? e.lastUse : e.insertedAt;
        if (!oldest || key < oldest_key) {
            oldest = &e;
            oldest_key = key;
        }
    }

    BufEntry *slot = free_slot ? free_slot : oldest;
    BufEvicted out;
    if (slot->valid) {
        out.valid = true;
        out.lineAddr = slot->lineAddr;
        out.dirty = slot->dirty;
        out.source = slot->source;
        out.wasUsed = slot->used;
        if (slot->source == BufSource::Prefetch && !slot->used)
            ++nWastedPref;
    }

    slot->lineAddr = line_addr;
    slot->valid = true;
    slot->dirty = dirty;
    slot->source = source;
    slot->conflictBit = conflict_bit;
    slot->ready = ready;
    slot->used = false;
    slot->lastUse = ++tick;
    slot->insertedAt = tick;

    ++nFills;
    ++nIns[idx(source)];
    return out;
}

bool
AssistBuffer::erase(LineAddr line_addr)
{
    BufEntry *e = find(line_addr);
    if (!e)
        return false;
    e->valid = false;
    return true;
}

void
AssistBuffer::flush()
{
    for (auto &e : slots)
        e.valid = false;
}

unsigned
AssistBuffer::occupancy() const
{
    unsigned n = 0;
    for (const auto &e : slots)
        n += e.valid ? 1 : 0;
    return n;
}

Count
AssistBuffer::totalHits() const
{
    return nHits[0] + nHits[1] + nHits[2];
}

void
AssistBuffer::clearStats()
{
    nFills = 0;
    nHits[0] = nHits[1] = nHits[2] = 0;
    nIns[0] = nIns[1] = nIns[2] = 0;
    nWastedPref = 0;
}

} // namespace ccm
