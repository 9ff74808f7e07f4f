/**
 * @file
 * Tests of the benchmark's own logic: the percentile rule, error-rate
 * accounting, seed determinism of the inputs, and that every output
 * check fails when fed a corrupted reference (so no check is
 * vacuous). Exits 0 when every check passes.
 *
 *   python3 perfbench/run.py --selftest
 */

#include <cstdio>
#include <string>

#include "ir/printer.hh"
#include "perfbench.hh"
#include "shard/shard.hh"
#include "support/metrics.hh"

namespace
{

using namespace perfbench;
using namespace hippo;

int failures = 0;

void
check(bool ok, const char *what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
}

void
testPercentileRule()
{
    std::vector<double> v;
    for (int i = 1; i <= 100; i++)
        v.push_back(i);
    check(percentile(v, 50) == 50 && percentile(v, 90) == 90 &&
              percentile(v, 99) == 99 && median(v) == 50,
          "nearest-rank percentiles of 1..100");
    check(percentile({}, 50) == 0, "percentile of no samples is 0");
    check(percentileSupported(1000, 99), "p99 needs 1000 samples: 1000");
    check(!percentileSupported(999, 99), "p99 needs 1000 samples: 999");
    check(percentileSupported(100, 90) && !percentileSupported(99, 90),
          "p90 needs 100 samples");
    check(highestSupportedPercentile(500, {50, 90, 99}) == 90,
          "500 samples report p90, omit p99");
    check(highestSupportedPercentile(5000, {50, 90, 99}) == 99,
          "5000 samples report p99");
    check(highestSupportedPercentile(15, {50, 90, 99}) < 0,
          "15 samples support none of p50/p90/p99");
}

void
testErrorRate()
{
    check(errorRate(0, 0) == 0, "error rate of an empty run is 0");
    check(errorRate(200, 3) == 0.015, "error rate is failed / attempted");
}

KvShape
smallShape()
{
    KvShape s;
    s.records = 64;
    s.segmentOps = 64;
    s.buckets = 64;
    return s;
}

void
testSeedDeterminism()
{
    KvShape s = smallShape();
    check(serializePlan(makeKvPlan(s, 7)) == serializePlan(makeKvPlan(s, 7)),
          "same seed, byte-identical serve inputs");
    check(serializePlan(makeKvPlan(s, 7)) != serializePlan(makeKvPlan(s, 8)),
          "another seed, other serve inputs");

    auto a = buildCorpus(), b = buildCorpus();
    bool same = a.size() == b.size();
    for (size_t i = 0; same && i < a.size(); i++)
        same = a[i].text == b[i].text;
    check(same && a.size() == 16, "corpus texts are byte-identical");
    check(makeRounds(a, 7, 8, true) == makeRounds(a, 7, 8, true),
          "same seed, identical heal rounds");
    check(makeRounds(a, 7, 8, true) != makeRounds(a, 8, 8, true),
          "another seed, other heal rounds");
}

const CorpusModule &
corpusModule(const std::vector<CorpusModule> &corpus,
             const std::string &name)
{
    for (const CorpusModule &c : corpus)
        if (c.name == name)
            return c;
    std::fprintf(stderr, "no corpus module %s\n", name.c_str());
    std::exit(1);
}

void
testHealAndCertifyChecks()
{
    auto corpus = buildCorpus();
    Tracer off(false);
    const CorpusModule &c = corpusModule(corpus, "pmlog");
    std::vector<uint64_t> args = {c.argSizes[0]};

    HealOutcome h = healModule(c.text, c.entry, args, off, 0, nullptr);
    std::string ref = treeReport(c.text, c.entry, args);
    check(healCorrect(h, ref), "heal check passes against the oracle");
    check(!healCorrect(h, ref + "x"), "heal check fails: corrupted report");
    check(!healCorrect(h, treeReport(c.text, c.entry, {c.argSizes[1]})),
          "heal check fails: report of another input");

    CertifyInput in;
    in.name = c.name;
    in.text = ir::moduleToString(*h.module);
    in.entry = c.entry;
    in.recovery = c.recovery;
    in.args = args;
    in.faults.seed = 5;
    in.faults.tornChance = 0.25;
    CertifyOutcome o = certifyModule(in, 1, pmcheck::ExploreEngine::Auto,
                                     vm::VmEngine::Auto, off, 0, nullptr);
    uint64_t digest = referenceDigest(in);
    check(certifyCorrect(o, digest), "certify check passes against the oracle");
    check(!certifyCorrect(o, digest ^ 1), "certify check fails: corrupted digest");
    CertifyInput buggy = in;
    buggy.text = c.text;
    check(!certifyCorrect(o, referenceDigest(buggy)),
          "certify check fails: digest of the unhealed module");
}

void
testServePlan()
{
    KvPlan plan = makeKvPlan(smallShape(), 3);
    bool types[5] = {};
    for (const KvOp &op : plan.ops)
        types[(int)op.type] = true;
    check(types[0] && types[1] && types[2] && types[3] && types[4],
          "the serve stream holds all five op types");
    bool segments = plan.segments.size() == 6;
    for (size_t i = 0; segments && i < 6; i++)
        segments = plan.segments[i].workload == ycsb::Workload(1 + i) &&
                   plan.segments[i].end - plan.segments[i].begin == 64;
    check(segments, "one 64-op segment per core workload A-F");
    bool mix_a = true;
    for (size_t i = 0; i < 64; i++)
        mix_a = mix_a && (plan.ops[i].type == ycsb::OpType::Read ||
                          plan.ops[i].type == ycsb::OpType::Update);
    check(mix_a, "segment A holds only reads and updates");
}

void
testServeChecks()
{
    KvPlan plan = makeKvPlan(smallShape(), 3);
    check(kvPlanFits(plan), "the planned store holds every write");
    KvPlan tight = plan;
    tight.logCapacity = 4096;
    check(!kvPlanFits(tight), "an undersized kv.log is refused");

    auto module = servedModule(plan);
    KvExpect expect = modelKv(plan);
    KvExpect corrupt = expect;
    size_t corrupted = 0;
    for (size_t i = 0; i < plan.ops.size(); i++)
        if (plan.ops[i].type == ycsb::OpType::Read ||
            plan.ops[i].type == ycsb::OpType::Scan) {
            corrupt.results[i] += 8;
            corrupted++;
        }

    pmem::PmPool pool(plan.poolBytes);
    vm::Vm machine(module.get(), &pool);
    machine.run("kv_init");
    for (const KvOp &op : plan.load)
        machine.run(kvFunction(op.type), {op.key, op.arg});
    uint64_t failed = 0, failed_corrupt = 0;
    for (size_t i = 0; i < plan.ops.size(); i++) {
        const KvOp &op = plan.ops[i];
        vm::RunResult r =
            op.type == ycsb::OpType::Read
                ? machine.run(kvFunction(op.type), {op.key})
                : machine.run(kvFunction(op.type), {op.key, op.arg});
        failed += !kvOpCorrect(op, r, expect.results[i]);
        failed_corrupt += !kvOpCorrect(op, r, corrupt.results[i]);
    }
    check(failed == 0, "every served op matches the key model");
    check(corrupted > 0 && failed_corrupt == corrupted,
          "each corrupted get/scan reference counts one failure");
    check(errorRate(plan.ops.size(), failed_corrupt) ==
              (double)corrupted / (double)plan.ops.size(),
          "error rate of the corrupted run");
    uint64_t meta = pool.findRegion("kv.meta")->base;
    check(!kvLogOverrun(pool, meta, plan.logCapacity),
          "the planned kv.log holds the epoch");
    vm::RunResult recovered = machine.run("kv_recover");
    check(kvRecoverCorrect(recovered, expect),
          "kv_recover counts every write of the model");
    for (int64_t off : {-1, 1}) {
        KvExpect wrong = expect;
        wrong.recoverCount += off;
        check(!kvRecoverCorrect(recovered, wrong),
              off < 0 ? "kv_recover check fails: count one short"
                      : "kv_recover check fails: count one over");
    }
}

/** A store whose kv.log is undersized at run time: the writes spill
 *  past it (pmkv's @log_alloc does not check), and the overrun check
 *  must see it. */
void
testLogOverrunCheck()
{
    KvPlan plan = makeKvPlan(smallShape(), 3);
    KvPlan tight = plan;
    tight.logCapacity = 4096;
    auto module = servedModule(tight);
    pmem::PmPool pool(plan.poolBytes); // room for the spill
    vm::Vm machine(module.get(), &pool);
    machine.run("kv_init");
    uint64_t meta = pool.findRegion("kv.meta")->base;
    size_t first_overrun = 0, n = 0;
    for (const auto *ops : {&plan.load, &plan.ops})
        for (const KvOp &op : *ops) {
            n++;
            if (op.type == ycsb::OpType::Read)
                machine.run(kvFunction(op.type), {op.key});
            else
                machine.run(kvFunction(op.type), {op.key, op.arg});
            if (!first_overrun &&
                kvLogOverrun(pool, meta, tight.logCapacity))
                first_overrun = n;
        }
    check(first_overrun > 0 && plan.logNeed > tight.logCapacity,
          "overrun check fires on an undersized kv.log");
    check(kvLogHead(pool, meta) == plan.logNeed,
          "the log head ends at the plan's logNeed");
}

void
testShardedCheck()
{
    KvShape s = smallShape();
    KvPlan plan = makeKvPlan(s, 4);
    auto module = servedModule(plan);
    auto digest = [&](unsigned shards, size_t drop) {
        shard::ShardConfig sc;
        sc.shards = shards;
        sc.jobs = 1;
        sc.poolBytes = plan.poolBytes;
        sc.valLen = kvValLen;
        sc.kv.buckets = s.buckets;
        sc.kv.logCapacity = plan.logCapacity;
        support::MetricsRegistry reg;
        shard::ShardedKv kv(module.get(), sc, &reg);
        kv.init();
        std::vector<ycsb::Op> ops;
        for (const KvOp &op : plan.load)
            ops.push_back({op.type, op.key, 0});
        for (size_t i = 0; i < plan.ops.size(); i++)
            if (i != drop)
                ops.push_back({plan.ops[i].type, plan.ops[i].key,
                               plan.ops[i].type == ycsb::OpType::Scan
                                   ? plan.ops[i].arg
                                   : 0});
        kv.run(ops);
        return kv.mergedRecoveryDigest(s.records + 6 * s.segmentOps + 128);
    };
    size_t write = 0;
    while (plan.ops[write].type == ycsb::OpType::Read ||
           plan.ops[write].type == ycsb::OpType::Scan)
        write++;
    uint64_t sharded = digest(4, ~size_t(0));
    check(sharded == digest(1, ~size_t(0)),
          "4-shard digest equals the 1-shard serial reference");
    check(sharded != digest(1, write),
          "sharded check fails: reference missing one write");
}

} // namespace

int
main()
{
    testPercentileRule();
    testErrorRate();
    testSeedDeterminism();
    testHealAndCertifyChecks();
    testServePlan();
    testServeChecks();
    testLogOverrunCheck();
    testShardedCheck();
    std::printf("%s: %d failure(s)\n", failures ? "FAILED" : "passed",
                failures);
    return failures ? 1 : 0;
}
