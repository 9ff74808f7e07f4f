/**
 * @file
 * Serve inputs: seeded pmkv op streams from the repository's YCSB
 * generator, store geometry sized for every planned write (pmkv's
 * @log_alloc never checks the bound of kv.log, so an undersized log
 * would silently spill), the host-side key model the served results
 * are checked against, and the checks themselves.
 */

#include <cstring>
#include <iterator>
#include <unordered_map>

#include "perfbench.hh"
#include "support/random.hh"

namespace perfbench
{

using namespace hippo;
using ycsb::OpType;

namespace
{

constexpr uint64_t metaBytes = 64;      ///< pmkv kv.meta
constexpr uint64_t logStart = 8;        ///< first pmkv log offset
constexpr uint64_t entryHeader = 32;    ///< pmkv entry header bytes
constexpr uint64_t explorerPoolBytes = 16u << 20;

uint64_t
align(uint64_t v, uint64_t a)
{
    return (v + a - 1) / a * a;
}

uint64_t
kvRegionBytes(uint64_t buckets, uint64_t log_capacity)
{
    return align(metaBytes, pmem::cacheLineSize) +
           align(buckets * 8, pmem::cacheLineSize) +
           align(log_capacity, pmem::cacheLineSize);
}

KvOp
kvOpOf(const ycsb::Op &op)
{
    uint64_t arg = op.type == OpType::Scan ? op.scanLength
                   : isWrite(op.type)      ? kvValLen
                                           : 0;
    return KvOp{op.type, op.key, arg};
}

} // namespace

uint64_t
kvEntryBytes(uint64_t val_len)
{
    return align(val_len, 8) + entryHeader;
}

KvPlan
makeKvPlan(const KvShape &shape, uint64_t seed)
{
    KvPlan p;
    p.shape = shape;

    ycsb::Generator load(ycsb::Workload::Load, shape.records, shape.records,
                         deriveSeed(seed, 0x6b76));
    p.load.reserve(shape.records);
    while (load.hasNext())
        p.load.push_back(kvOpOf(load.next()));

    static const ycsb::Workload core[] = {
        ycsb::Workload::A, ycsb::Workload::B, ycsb::Workload::C,
        ycsb::Workload::D, ycsb::Workload::E, ycsb::Workload::F,
    };
    uint64_t records = shape.records;
    p.ops.reserve(shape.segmentOps * std::size(core));
    for (ycsb::Workload w : core) {
        ycsb::Generator gen(w, records, shape.segmentOps,
                            deriveSeed(seed, 0x6b76 + 1 + (uint64_t)w));
        KvSegment seg{w, p.ops.size(), 0};
        while (gen.hasNext())
            p.ops.push_back(kvOpOf(gen.next()));
        seg.end = p.ops.size();
        p.segments.push_back(seg);
        records = gen.finalRecordCount();
    }

    p.logNeed = logStart;
    for (const auto *ops : {&p.load, &p.ops})
        for (const KvOp &op : *ops)
            if (isWrite(op.type))
                p.logNeed += kvEntryBytes(op.arg);
    // Whole MiB, so the store geometry, and with it the process's
    // heap layout and peak RSS, is the same for every seed.
    p.logCapacity = align(p.logNeed, 1u << 20);
    p.poolBytes = align(kvRegionBytes(shape.buckets, p.logCapacity),
                        pmem::pmPageSize) +
                  pmem::pmPageSize;
    return p;
}

bool
kvPlanFits(const KvPlan &plan)
{
    uint64_t regions = kvRegionBytes(plan.shape.buckets, plan.logCapacity);
    return plan.logNeed <= plan.logCapacity && regions <= plan.poolBytes &&
           regions <= explorerPoolBytes;
}

uint64_t
kvLogHead(const pmem::PmPool &pool, uint64_t meta_base)
{
    uint64_t head = 0;
    pool.load(meta_base, reinterpret_cast<uint8_t *>(&head), 8);
    return head;
}

bool
kvLogOverrun(const pmem::PmPool &pool, uint64_t meta_base,
             uint64_t log_capacity)
{
    return kvLogHead(pool, meta_base) > log_capacity;
}

KvExpect
modelKv(const KvPlan &plan)
{
    KvExpect e;
    std::unordered_map<uint64_t, uint64_t> len;
    for (const KvOp &op : plan.load)
        len[op.key] = op.arg;
    uint64_t writes = plan.load.size();
    e.results.reserve(plan.ops.size());
    for (const KvOp &op : plan.ops) {
        uint64_t r = 0;
        if (op.type == OpType::Read) {
            auto it = len.find(op.key);
            r = it == len.end() ? 0 : it->second;
        } else if (op.type == OpType::Scan) {
            for (uint64_t k = op.key; k < op.key + op.arg; k++)
                r += len.count(k);
        } else {
            len[op.key] = op.arg;
            writes++;
        }
        e.results.push_back(r);
    }
    e.recoverCount = writes;
    return e;
}

std::string
serializePlan(const KvPlan &plan)
{
    std::string out;
    auto put = [&](uint64_t v) {
        char buf[8];
        std::memcpy(buf, &v, 8);
        out.append(buf, 8);
    };
    put(plan.logNeed);
    put(plan.logCapacity);
    put(plan.poolBytes);
    for (const auto *ops : {&plan.load, &plan.ops})
        for (const KvOp &op : *ops) {
            put((uint64_t)op.type);
            put(op.key);
            put(op.arg);
        }
    return out;
}

const std::string &
kvFunction(OpType t)
{
    static const std::string names[] = {
        "kv_handle_set",  "kv_handle_get", "kv_handle_update",
        "kv_handle_scan", "kv_handle_rmw",
    };
    switch (t) {
      case OpType::Insert:
        return names[0];
      case OpType::Read:
        return names[1];
      case OpType::Update:
        return names[2];
      case OpType::Scan:
        return names[3];
      case OpType::ReadModifyWrite:
        break;
    }
    return names[4];
}

bool
kvOpCorrect(const KvOp &op, const vm::RunResult &r, uint64_t expected)
{
    return r.ok() && (isWrite(op.type) || r.returnValue == expected);
}

bool
kvRecoverCorrect(const vm::RunResult &r, const KvExpect &e)
{
    return r.ok() && r.returnValue == e.recoverCount;
}

} // namespace perfbench
