/**
 * @file
 * The four closed-loop workloads, one client each: a client issues
 * its next item only when the last one completes.
 *
 *   heal_corpus     one item = one buggy module healed and re-checked
 *   certify_corpus  one item = one healed module certified
 *   serve_ycsb      one item = one pmkv op on a store spanning many
 *                   pool pages
 *   serve_sharded   one item = one pmkv op through ShardedKv; its
 *                   latency is the completion time of its batch
 *
 * Every workload sets up several times (set-up time is the median),
 * computes its oracle outside the set-up time, then measures whole
 * rounds (or epochs) until the run's seconds are used up. Inputs are
 * generated from the seed during set-up, never while timing.
 */

#include <algorithm>
#include <cmath>
#include <malloc.h>
#include <sched.h>
#include <stdexcept>
#include <thread>

#include "core/flush_optimizer.hh"
#include "ir/printer.hh"
#include "perfbench.hh"
#include "shard/shard.hh"
#include "support/metrics.hh"
#include "support/random.hh"
#include "support/strings.hh"

namespace perfbench
{

using namespace hippo;
using Clock = std::chrono::steady_clock;
using ycsb::OpType;

namespace
{

/** The set-up runs at least this many times, and until this many
 *  seconds have passed; setup_s is the median. A set-up lasts
 *  milliseconds, so a handful of repeats spread by a quarter or more
 *  between runs. */
constexpr size_t minSetupRepeats = 5;
constexpr double minSetupSeconds = 2.0;
constexpr size_t maxSetupRepeats = 2000;

/** Pre-generated rounds per heal/certify run; a run that exhausts
 *  them stops early and says so. */
constexpr size_t maxRounds = 4096;

/** Certification runs the optimizer's and the explorer's legs on one
 *  worker: explicit, within any host's nproc, and steady. */
constexpr unsigned certifyJobs = 1;

constexpr unsigned serveShards = 4;
/** A serve_sharded epoch is shardBatches batches. Batch k holds the
 *  k-th slice of every core workload's segment, so every batch
 *  carries the epoch's mix (see ServeSharded). */
constexpr size_t shardBatches = 64;
constexpr size_t shardSliceOps = 256;
constexpr size_t shardBatchOps = 6 * shardSliceOps;

/** ShardedKv workers. Four workers beside the client thread on a
 *  4-thread host made batch times swing by 2x between runs; two
 *  (each draining two shards) keep the fan-out and stay steady. */
constexpr unsigned shardJobs = 2;

double
since(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

unsigned
nproc()
{
    unsigned n = std::thread::hardware_concurrency();
    return n ? n : 1;
}

/**
 * Where the timed thread runs. CPU 0 usually handles most of a
 * host's interrupts; on the 4-CPU host the benchmark was tuned on, a
 * serve run there ran 1.5x slower than on any other CPU. The host's other
 * tenants slow single CPUs for minutes at a time, so a run that stays
 * on one CPU measures that CPU. The process therefore keeps off CPU 0
 * when others are allowed, and a single-threaded workload moves to
 * the next allowed CPU at every window (certify_corpus: every round);
 * the reported timings are medians over windows.
 */
class CpuRotor
{
  public:
    CpuRotor()
    {
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) != 0)
            return;
        if (CPU_ISSET(0, &set) && CPU_COUNT(&set) > 1)
            CPU_CLR(0, &set);
        for (int c = 0; c < CPU_SETSIZE; c++)
            if (CPU_ISSET(c, &set))
                cpus_.push_back(c);
        sched_setaffinity(0, sizeof(set), &set);
    }

    /** Pin the calling thread to the next CPU of the rotation. */
    void
    next()
    {
        if (cpus_.size() < 2)
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus_[next_++ % cpus_.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
    }

  private:
    std::vector<int> cpus_;
    size_t next_ = 0;
};

/**
 * Pin glibc's allocator so that Vm set-up costs what the real program
 * pays. Left dynamic, the mmap threshold rises after the first large
 * free and the heap top is trimmed now and then, so whether a 16 MiB
 * Vm arena is a fresh mapping (thousands of page faults) or reused
 * heap (a memset) depends on the process's allocation history: heal
 * latency turned bimodal, about 3 ms against 25 ms per module.
 */
void
pinAllocator(bool fresh_arenas)
{
    if (fresh_arenas) {
        // A hippoc heal is a one-shot process, and both of its arenas
        // are fresh memory whose pages fault in on first touch.
        // glibc's initial threshold, pinned, makes every arena a
        // fresh mapping.
        mallopt(M_MMAP_THRESHOLD, 128 << 10);
    } else {
        // Certifying or serving runs many Vms in one process. There
        // the dynamic threshold rises above the arena size once the
        // first arena is freed, and later arenas reuse heap. Pin that
        // state, and stop trimming so the heap stays.
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 1 << 30);
    }
}

/** Throughput and latency percentiles of one window of items. */
struct Window
{
    double rate = 0; ///< items per busy second
    double p50 = 0, p90 = 0, tail = 0;
};

/**
 * What a workload's timed phase produced. Items are summarized in
 * windows of a fixed item count (the whole run when 0), so memory
 * stays flat however fast the program runs.
 */
class Timed
{
  public:
    /** With @p rotor, every @p rotate_items items run on the next
     *  CPU. */
    Timed(size_t window, double tail, CpuRotor *rotor, size_t rotate_items)
        : window_(window), tail_(tail), rotor_(rotor),
          rotateItems_(rotate_items)
    {
        if (rotor_ && rotateItems_)
            rotor_->next();
    }

    uint64_t attempted = 0;
    uint64_t failed = 0;
    double busyS = 0; ///< summed item (or batch) time
    std::vector<std::string> failures; ///< the first few reasons
    bool exhausted = false; ///< ran out of pre-generated inputs
    std::vector<Window> windows;

    /** Record @p count items that took @p busy_s together, each
     *  with latency @p us (a batch's items share its latency). */
    void
    add(double us, uint64_t count, double busy_s)
    {
        attempted += count;
        busyS += busy_s;
        for (uint64_t i = 0; i < count; i++) {
            cur_.push_back(us);
            curBusy_ += busy_s / (double)count;
            if (cur_.size() == window_)
                close();
        }
        if (rotor_ && rotateItems_ && attempted % rotateItems_ == 0)
            rotor_->next();
    }

    void
    fail(uint64_t n, const std::string &why)
    {
        failed += n;
        if (failures.size() < 5)
            failures.push_back(why);
    }

    /** Close the last window unless it is under half full and a full
     *  one exists. */
    void
    finish()
    {
        if (!cur_.empty() && (windows.empty() || cur_.size() * 2 >= window_))
            close();
        cur_.clear();
    }

    /** Items per window (the whole run when 0). */
    size_t window() const { return window_; }

  private:
    void
    close()
    {
        windows.push_back({curBusy_ > 0 ? (double)cur_.size() / curBusy_ : 0,
                           percentile(cur_, 50), percentile(cur_, 90),
                           percentile(cur_, tail_)});
        cur_.clear();
        curBusy_ = 0;
    }

    size_t window_;
    double tail_;
    CpuRotor *rotor_;
    size_t rotateItems_;
    std::vector<double> cur_;
    double curBusy_ = 0;
};

class Workload
{
  public:
    Workload(uint64_t seed, Tracer &tracer, LayerStats *layers)
        : seed_(seed), tracer_(tracer), layers_(layers)
    {}
    virtual ~Workload() = default;

    /** Build every input and store from the seed; repeatable. */
    virtual void setup() = 0;
    /** Compute the oracle the timed outputs are checked against. */
    virtual void reference() = 0;
    /** Run whole rounds until @p seconds have passed. */
    virtual void measure(double seconds, Timed &t) = 0;
    /** The tail percentile this workload's windows hold samples for. */
    virtual double tailPercentile() const { return 99; }
    /** Items per timing window; 0 makes the whole run one window. */
    virtual size_t window() const = 0;
    /** Items between moves to the next CPU (see CpuRotor); 0 stays
     *  wherever the scheduler puts the threads. */
    virtual size_t rotateItems() const { return window(); }
    /** Workload-specific report lines (untraced metrics). */
    virtual void report(std::vector<std::string> &) const {}
    /** Whether every Vm arena should be fresh memory, as in a
     *  one-shot process (see pinAllocator). */
    virtual bool freshArenas() const { return false; }

    std::string refused; ///< set by setup() when the plan is refused

  protected:
    uint64_t seed_;
    Tracer &tracer_;
    LayerStats *layers_;
};

std::vector<uint64_t>
argsOf(const CorpusModule &c, uint32_t size)
{
    if (c.argSizes.empty())
        return {};
    return {c.argSizes[size]};
}

/** Report lines with each corpus module's median item latency. */
void
reportModules(std::vector<std::string> &out,
              const std::map<std::string, std::vector<double>> &us)
{
    for (const auto &[name, v] : us)
        out.push_back(format("module %s p50_us %.1f items %zu",
                             name.c_str(), median(v), v.size()));
}

// ---------------------------------------------------------------
// heal_corpus
// ---------------------------------------------------------------

class HealCorpus : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        corpus_ = buildCorpus();
        rounds_ = makeRounds(corpus_, seed_, maxRounds, /*vary_sizes=*/true);
    }

    void
    reference() override
    {
        for (const auto &round : rounds_)
            for (const RoundItem &it : round) {
                auto key = std::make_pair(it.module, it.size);
                if (ref_.count(key))
                    continue;
                const CorpusModule &c = corpus_[it.module];
                ref_[key] = treeReport(c.text, c.entry, argsOf(c, it.size));
            }
    }

    void
    measure(double seconds, Timed &t) override
    {
        auto start = Clock::now();
        t.exhausted = true;
        for (const auto &round : rounds_) {
            if (since(start) >= seconds) {
                t.exhausted = false;
                break;
            }
            for (const RoundItem &it : round) {
                const CorpusModule &c = corpus_[it.module];
                auto args = argsOf(c, it.size);
                uint64_t item = t.attempted;
                auto t0 = Clock::now();
                HealOutcome o;
                {
                    ScopedSpan s(tracer_, "bench.item", item);
                    o = healModule(c.text, c.entry, args, tracer_, item,
                                   layers_);
                }
                double dt = since(t0);
                t.add(dt * 1e6, 1, dt);
                moduleUs_[c.name].push_back(dt * 1e6);
                if (!healCorrect(o, ref_[{it.module, it.size}]))
                    t.fail(1, c.name + ": " +
                                  (o.ok ? "differs from the oracle"
                                        : o.error));
            }
        }
    }

    /**
     * Every module pays two fresh 16 MiB Vm arenas, so a 20 s run
     * holds a few hundred items: too few for p99. A window is eight
     * rounds, 128 items with twelve beyond p90, and a run has five
     * or more.
     */
    size_t window() const override { return 8 * corpus_.size(); }
    double tailPercentile() const override { return 90; }
    /** Each module is one hippoc run. */
    bool freshArenas() const override { return true; }

    void
    report(std::vector<std::string> &out) const override
    {
        reportModules(out, moduleUs_);
    }

  private:
    std::vector<CorpusModule> corpus_;
    std::vector<std::vector<RoundItem>> rounds_;
    std::map<std::pair<uint32_t, uint32_t>, std::string> ref_;
    std::map<std::string, std::vector<double>> moduleUs_;
};

// ---------------------------------------------------------------
// certify_corpus
// ---------------------------------------------------------------

class CertifyCorpus : public Workload
{
  public:
    using Workload::Workload;

    void
    setup() override
    {
        auto corpus = buildCorpus();
        inputs_.clear();
        Tracer off(false);
        for (size_t i = 0; i < corpus.size(); i++) {
            const CorpusModule &c = corpus[i];
            CertifyInput in;
            in.name = c.name;
            in.entry = c.entry;
            in.recovery = c.recovery;
            in.args = argsOf(c, 0);
            if (c.certifyUnhealed) {
                in.text = c.text;
            } else {
                HealOutcome h =
                    healModule(c.text, c.entry, in.args, off, 0, nullptr);
                if (!h.ok || !h.recheckClean)
                    throw std::runtime_error("healing " + c.name +
                                             " failed: " + h.error);
                in.text = ir::moduleToString(*h.module);
            }
            in.faults.seed = deriveSeed(seed_, 100 + i);
            in.faults.tornChance = 0.25;
            inputs_.push_back(std::move(in));
        }
        // Only the order varies between rounds; sizes stay the
        // defaults the corpus was healed with.
        rounds_ = makeRounds(corpus, seed_, maxRounds, /*vary_sizes=*/false);
    }

    void
    reference() override
    {
        refs_.clear();
        for (const CertifyInput &in : inputs_)
            refs_.push_back(referenceDigest(in));
    }

    void
    measure(double seconds, Timed &t) override
    {
        auto start = Clock::now();
        t.exhausted = true;
        for (const auto &round : rounds_) {
            if (since(start) >= seconds) {
                t.exhausted = false;
                break;
            }
            for (const RoundItem &it : round) {
                const CertifyInput &in = inputs_[it.module];
                uint64_t item = t.attempted;
                auto t0 = Clock::now();
                CertifyOutcome o;
                {
                    ScopedSpan s(tracer_, "bench.item", item);
                    o = certifyModule(in, certifyJobs,
                                      pmcheck::ExploreEngine::Auto,
                                      vm::VmEngine::Auto, tracer_, item,
                                      layers_);
                }
                double dt = since(t0);
                t.add(dt * 1e6, 1, dt);
                moduleUs_[in.name].push_back(dt * 1e6);
                crashPoints_ += o.crashPoints;
                unverified_ += o.unverified;
                if (!certifyCorrect(o, refs_[it.module]))
                    t.fail(1, in.name + (!o.ok     ? ": unparseable"
                                         : !o.kept ? ": optimizer reverted"
                                                   : ": recovery digest "
                                                     "differs from the "
                                                     "oracle"));
            }
        }
    }

    /** A run holds a few hundred certifications: one window, too
     *  few for p99. */
    double tailPercentile() const override { return 90; }
    size_t window() const override { return 0; }
    /** Each round runs on the next CPU. */
    size_t rotateItems() const override { return inputs_.size(); }

    void
    report(std::vector<std::string> &out) const override
    {
        reportModules(out, moduleUs_);
        out.push_back(format("metric pmcheck.unverified_ratio %.6f ratio",
                             crashPoints_ ? (double)unverified_ /
                                                (double)crashPoints_
                                          : 0.0));
    }

  private:
    std::vector<CertifyInput> inputs_;
    std::vector<std::vector<RoundItem>> rounds_;
    std::vector<uint64_t> refs_;
    std::map<std::string, std::vector<double>> moduleUs_;
    uint64_t crashPoints_ = 0;
    uint64_t unverified_ = 0;
};

// ---------------------------------------------------------------
// serve_ycsb / serve_sharded shared pieces
// ---------------------------------------------------------------

std::string
refusal(const KvPlan &plan)
{
    return format("plan does not fit: kv.log %llu bytes, pool %llu bytes",
                  (unsigned long long)plan.logCapacity,
                  (unsigned long long)plan.poolBytes);
}

// ---------------------------------------------------------------
// serve_ycsb
// ---------------------------------------------------------------

class ServeYcsb : public Workload
{
  public:
    using Workload::Workload;

    static KvShape
    shape()
    {
        KvShape s;
        s.records = 16384;
        s.segmentOps = 8192;
        s.buckets = 16384;
        return s;
    }

    void
    setup() override
    {
        plan_ = makeKvPlan(shape(), seed_);
        if (!kvPlanFits(plan_)) {
            refused = refusal(plan_);
            return;
        }
        module_ = servedModule(plan_);
        pmem::PmPool pool(plan_.poolBytes);
        vm::Vm machine(module_.get(), &pool);
        if (!machine.run("kv_init").ok())
            throw std::runtime_error("kv_init failed");
        for (const KvOp &op : plan_.load)
            if (!machine.run(kvFunction(op.type), {op.key, op.arg}).ok())
                throw std::runtime_error("loading the store failed");
        base_ = pool.snapshot();
    }

    void reference() override { expect_ = modelKv(plan_); }

    /** A window is one epoch, so every window holds the same mix. */
    size_t window() const override { return plan_.ops.size(); }

    void
    measure(double seconds, Timed &t) override
    {
        auto start = Clock::now();
        while (since(start) < seconds) {
            epoch(t);
        }
    }

    void
    report(std::vector<std::string> &out) const override
    {
        auto p99 = [&](const char *name, const std::vector<double> &v) {
            out.push_back(format("metric %s %.3f us", name, median(v)));
        };
        p99("read_p99_us", readP99_);
        p99("write_p99_us", writeP99_);
        p99("scan_p99_us", scanP99_);
        out.push_back(format("metric sim_kops_per_s %.6f kops/s",
                             simNs_ > 0 ? (double)ops_ * 1e6 / simNs_
                                        : 0.0));
        for (size_t i = 0; i < plan_.segments.size(); i++) {
            const KvSegment &sg = plan_.segments[i];
            double busy = segmentBusyS_[i];
            out.push_back(format(
                "segment ycsb-%s ops %zu host_kops_per_s %.1f",
                ycsb::workloadName(sg.workload), sg.end - sg.begin,
                busy > 0 ? (double)(sg.end - sg.begin) * epochs_ / busy / 1e3
                         : 0.0));
        }
    }

  private:
    void
    epoch(Timed &t)
    {
        pmem::PmPool pool(base_);
        vm::Vm machine(module_.get(), &pool);
        if (!machine.run("kv_init").ok()) {
            t.fail(1, "kv_init failed");
            return;
        }
        uint64_t meta = pool.findRegion("kv.meta")->base;
        uint64_t steps0 = machine.steps();
        uint64_t disp0 = machine.fastDispatches();
        uint64_t super0 = machine.fastSuperExecuted();
        double sim0 = machine.simNanos();
        uint64_t flush0 = pool.stats().flushes;
        uint64_t fence0 = pool.stats().fences;
        double busy0 = t.busyS;

        std::vector<double> read, write, scan;
        bool overflow = false;
        size_t seg = 0;
        for (size_t i = 0; i < plan_.ops.size(); i++) {
            const KvOp &op = plan_.ops[i];
            if (i == plan_.segments[seg].end)
                seg++;
            uint64_t item = t.attempted;
            auto t0 = Clock::now();
            vm::RunResult r;
            {
                ScopedSpan s(tracer_, "bench.item", item);
                ScopedSpan run(tracer_, "vm.run", item);
                if (op.type == OpType::Read)
                    r = machine.run(kvFunction(op.type), {op.key});
                else
                    r = machine.run(kvFunction(op.type), {op.key, op.arg});
            }
            double dt = since(t0);
            t.add(dt * 1e6, 1, dt);
            segmentBusyS_[seg] += dt;
            if (op.type == OpType::Read)
                read.push_back(dt * 1e6);
            else if (op.type == OpType::Scan)
                scan.push_back(dt * 1e6);
            else
                write.push_back(dt * 1e6);

            if (isWrite(op.type) && !overflow)
                overflow = kvLogOverrun(pool, meta, plan_.logCapacity);
            if (overflow)
                t.fail(1, "kv.log overrun");
            else if (!kvOpCorrect(op, r, expect_.results[i]))
                t.fail(1, format("%s of key %llu returned %llu, model %llu",
                                 kvFunction(op.type).c_str(),
                                 (unsigned long long)op.key,
                                 (unsigned long long)r.returnValue,
                                 (unsigned long long)expect_.results[i]));
        }

        readP99_.push_back(percentile(read, 99));
        writeP99_.push_back(percentile(write, 99));
        scanP99_.push_back(percentile(scan, 99));

        epochs_++;
        uint64_t ops = plan_.ops.size();
        double steps = (double)(machine.steps() - steps0);
        double disp = (double)(machine.fastDispatches() - disp0);
        double sim = machine.simNanos() - sim0;
        ops_ += ops;
        simNs_ += sim;
        if (layers_) {
            layers_->ratio("vm.steps_per_op", steps, (double)ops);
            layers_->ratio("vm.dispatches_per_op", disp, (double)ops);
            layers_->ratio("vm.superinstruction_ratio",
                           (double)(machine.fastSuperExecuted() - super0),
                           disp);
            layers_->ratio("vm.host_ns_per_step", (t.busyS - busy0) * 1e9,
                           steps);
            layers_->ratio("vm.sim_ns_per_op", sim, (double)ops);
            layers_->ratio("pmem.flushes_per_op",
                           (double)(pool.stats().flushes - flush0),
                           (double)ops);
            layers_->ratio("pmem.fences_per_op",
                           (double)(pool.stats().fences - fence0),
                           (double)ops);
        }

        // Every write appended one checksum-valid entry.
        vm::RunResult rec = machine.run("kv_recover");
        if (!kvRecoverCorrect(rec, expect_))
            t.fail(1, format("kv_recover returned %llu, model %llu",
                             (unsigned long long)rec.returnValue,
                             (unsigned long long)expect_.recoverCount));
    }

    KvPlan plan_;
    std::unique_ptr<ir::Module> module_;
    pmem::PmPool::Snapshot base_;
    KvExpect expect_;
    /** Per-epoch p99 of each op class. */
    std::vector<double> readP99_, writeP99_, scanP99_;
    /** Summed op time of each core workload's segment. */
    double segmentBusyS_[6] = {};
    uint64_t epochs_ = 0;
    uint64_t ops_ = 0;
    double simNs_ = 0;
};

// ---------------------------------------------------------------
// serve_sharded
// ---------------------------------------------------------------

class ServeSharded : public Workload
{
  public:
    using Workload::Workload;

    static KvShape
    shape()
    {
        KvShape s;
        s.records = 512;
        s.segmentOps = shardBatches * shardSliceOps;
        s.buckets = 1024;
        return s;
    }

    void
    setup() override
    {
        plan_ = makeKvPlan(shape(), seed_);
        if (!kvPlanFits(plan_)) {
            refused = refusal(plan_);
            return;
        }
        module_ = servedModule(plan_);
        load_.clear();
        for (const KvOp &op : plan_.load)
            load_.push_back(ycsb::Op{op.type, op.key, 0});
        // Batches cut straight from the A-F stream held one segment
        // each, so batch times formed one cluster per segment, and
        // the p50 batch fell on a boundary between two clusters: it
        // spread by up to half its median between runs. Interleaved
        // slices make every batch alike.
        batches_.clear();
        keyLimit_ = 0;
        for (size_t k = 0; k < shardBatches; k++) {
            batches_.emplace_back();
            for (const KvSegment &sg : plan_.segments) {
                size_t begin = sg.begin + k * shardSliceOps;
                for (size_t i = begin; i < begin + shardSliceOps; i++) {
                    const KvOp &op = plan_.ops[i];
                    uint64_t scan = op.type == OpType::Scan ? op.arg : 0;
                    batches_.back().push_back(
                        ycsb::Op{op.type, op.key, scan});
                    keyLimit_ = std::max(keyLimit_, op.key + scan + 1);
                }
            }
        }
        jobs_ = std::min(shardJobs, nproc());
        store_ = makeStore(serveShards, jobs_);
    }

    /** A window is two epochs, 128 batches, so every window holds
     *  the same mix, with 12 distinct batch times beyond p90. */
    size_t window() const override { return 2 * plan_.ops.size(); }
    /** The workers run wherever the scheduler puts them. */
    size_t rotateItems() const override { return 0; }

    /** A window's 128 batch times leave one beyond p99, so the tail
     *  is p90. */
    double tailPercentile() const override { return 90; }

    void
    reference() override
    {
        auto serial = makeStore(1, 1);
        for (const auto &batch : batches_)
            serial->run(batch);
        refDigest_ = serial->mergedRecoveryDigest(keyLimit_);
    }

    void
    measure(double seconds, Timed &t) override
    {
        auto start = Clock::now();
        while (since(start) < seconds) {
            auto kv = store_ ? std::move(store_)
                             : makeStore(serveShards, jobs_);
            epoch(*kv, t);
        }
    }

    void
    report(std::vector<std::string> &out) const override
    {
        out.push_back(format("metric sim_kops_per_s %.6f kops/s",
                             simS_ > 0 ? (double)ops_ / simS_ / 1e3 : 0.0));
        out.push_back(format("shards %u jobs %u batch_ops %zu", serveShards,
                             jobs_, shardBatchOps));
    }

  private:
    std::unique_ptr<shard::ShardedKv>
    makeStore(unsigned shards, unsigned jobs)
    {
        shard::ShardConfig sc;
        sc.shards = shards;
        sc.jobs = jobs;
        sc.poolBytes = plan_.poolBytes;
        sc.valLen = kvValLen;
        sc.kv.buckets = plan_.shape.buckets;
        sc.kv.logCapacity = plan_.logCapacity;
        auto kv =
            std::make_unique<shard::ShardedKv>(module_.get(), sc, &registry_);
        kv->init();
        kv->run(load_);
        return kv;
    }

    void
    epoch(shard::ShardedKv &kv, Timed &t)
    {
        std::vector<uint64_t> metas;
        for (unsigned s = 0; s < kv.shards(); s++)
            metas.push_back(kv.vmOf(s).pool().findRegion("kv.meta")->base);
        std::vector<uint64_t> steps(kv.shards());
        bool overflow = false;
        for (const auto &batch : batches_) {
            uint64_t item = t.attempted;
            if (layers_)
                for (unsigned s = 0; s < kv.shards(); s++)
                    steps[s] = kv.vmOf(s).steps();
            auto t0 = Clock::now();
            shard::ShardRunStats stats;
            double batch_us = 0;
            {
                ScopedSpan s(tracer_, "bench.item", item);
                ScopedSpan b(tracer_, "shard.batch", item);
                stats = kv.run(batch);
                batch_us = b.end();
            }
            double dt = since(t0);
            t.add(dt * 1e6, batch.size(), dt);
            ops_ += stats.ops;
            simS_ += stats.simSecondsMax;

            for (unsigned s = 0; s < kv.shards() && !overflow; s++)
                overflow = kvLogOverrun(kv.vmOf(s).pool(), metas[s],
                                        plan_.logCapacity);
            if (overflow)
                t.fail(batch.size(), "kv.log overrun");

            if (layers_) {
                double max_steps = 0, sum_steps = 0;
                for (unsigned s = 0; s < kv.shards(); s++) {
                    double d = (double)(kv.vmOf(s).steps() - steps[s]);
                    max_steps = std::max(max_steps, d);
                    sum_steps += d;
                }
                layers_->sample("shard.batch_us", batch_us);
                if (sum_steps > 0)
                    layers_->sample("shard.imbalance",
                                    max_steps * kv.shards() / sum_steps);
                layers_->ratio("shard.subops_per_op", (double)stats.subOps,
                               (double)stats.ops);
                layers_->ratio("shard.op_steps_per_op", (double)stats.opSteps,
                               (double)stats.ops);
            }
        }
        uint64_t digest = kv.mergedRecoveryDigest(keyLimit_);
        if (digest != refDigest_)
            t.fail(1, format("merged recovery digest %016llx, serial "
                             "reference %016llx",
                             (unsigned long long)digest,
                             (unsigned long long)refDigest_));
    }

    KvPlan plan_;
    std::unique_ptr<ir::Module> module_;
    std::vector<ycsb::Op> load_;
    std::vector<std::vector<ycsb::Op>> batches_;
    uint64_t keyLimit_ = 0;
    unsigned jobs_ = 1;
    support::MetricsRegistry registry_;
    std::unique_ptr<shard::ShardedKv> store_; ///< the first epoch's
    uint64_t refDigest_ = 0;
    uint64_t ops_ = 0;
    double simS_ = 0;
};

std::unique_ptr<Workload>
makeWorkload(const std::string &name, uint64_t seed, Tracer &tracer,
             LayerStats *layers)
{
    if (name == "heal_corpus")
        return std::make_unique<HealCorpus>(seed, tracer, layers);
    if (name == "certify_corpus")
        return std::make_unique<CertifyCorpus>(seed, tracer, layers);
    if (name == "serve_ycsb")
        return std::make_unique<ServeYcsb>(seed, tracer, layers);
    if (name == "serve_sharded")
        return std::make_unique<ServeSharded>(seed, tracer, layers);
    return nullptr;
}

/** Value of per-layer metric @p name from a traced run. */
double
layerValue(const std::string &name, const LayerStats &layers,
           const std::map<std::string, double> &self_ns, uint64_t items)
{
    const std::string self = "self_us.";
    if (name.rfind(self, 0) == 0) {
        auto it = self_ns.find(name.substr(self.size()));
        return it == self_ns.end() || !items
                   ? 0
                   : it->second / 1e3 / (double)items;
    }
    if (auto it = layers.samples.find(name); it != layers.samples.end())
        return median(it->second);
    if (auto it = layers.ratios.find(name); it != layers.ratios.end())
        return it->second.second > 0
                   ? it->second.first / it->second.second
                   : 0;
    return 0;
}

} // namespace

std::vector<std::vector<RoundItem>>
makeRounds(const std::vector<CorpusModule> &corpus, uint64_t seed,
           size_t count, bool vary_sizes)
{
    Rng rng(deriveSeed(seed, 0x726f));
    std::vector<std::vector<RoundItem>> rounds(count);
    for (auto &round : rounds) {
        for (uint32_t i = 0; i < corpus.size(); i++) {
            const auto &sizes = corpus[i].argSizes;
            uint32_t s = vary_sizes && !sizes.empty()
                             ? (uint32_t)rng.nextBelow(sizes.size())
                             : 0;
            round.push_back({i, s});
        }
        for (size_t i = round.size(); i > 1; i--)
            std::swap(round[i - 1], round[rng.nextBelow(i)]);
    }
    return rounds;
}

std::unique_ptr<ir::Module>
servedModule(const KvPlan &plan)
{
    apps::PmkvConfig cfg;
    cfg.buckets = plan.shape.buckets;
    cfg.logCapacity = plan.logCapacity;
    Tracer off(false);
    const std::vector<uint64_t> drive_args = {4};
    HealOutcome h =
        healModule(pmkvText(cfg), "bench_drive", drive_args, off, 0, nullptr);
    if (!h.ok || !h.recheckClean)
        throw std::runtime_error("healing the served pmkv failed: " +
                                 h.error);
    core::FlushOptVerifyConfig oc;
    oc.entry = "bench_drive";
    oc.entryArgs = drive_args;
    oc.recovery = "kv_recover";
    oc.jobs = 1;
    auto out = core::optimizeAndVerify(h.module, oc);
    if (!out.verified || out.reverted)
        throw std::runtime_error("optimizer reverted the served pmkv: " +
                                 out.failReason);
    return std::move(h.module);
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "heal_corpus", "certify_corpus", "serve_ycsb", "serve_sharded"};
    return names;
}

const std::vector<std::pair<std::string, std::string>> &
endToEndMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        {"setup_s", "s"},
        {"peak_rss_mb", "MB"},
        {"items_per_s", "items/s"},
        {"latency_p50_us", "us"},
        {"latency_p90_us", "us"},
        {"latency_tail_us", "us"},
    };
    return m;
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> m = {
        // heal_corpus
        {"ir.parse_us", "us"},
        {"ir.parse_mb_per_s", "MB/s"},
        {"ir.verify_us", "us"},
        {"analysis.static_check_us", "us"},
        {"analysis.static_candidates", "count"},
        {"vm.setup_us", "us"},
        {"vm.traced_run_us", "us"},
        {"vm.traced_steps", "count"},
        {"trace.events", "count"},
        {"pmcheck.detect_us", "us"},
        {"pmcheck.bugs_found", "count"},
        {"core.fix_us", "us"},
        {"core.fixes_planned", "count"},
        {"core.fixes_after_reduction", "count"},
        {"core.bugs_fixed_ratio", "ratio"},
        {"core.flushes_inserted", "count"},
        {"core.fences_inserted", "count"},
        {"core.recheck_us", "us"},
        {"core.recheck_clean_ratio", "ratio"},
        // certify_corpus
        {"core.optimize_verify_us", "us"},
        {"core.optimizer_kept_ratio", "ratio"},
        {"core.flushes_removed", "count"},
        {"pmcheck.explore_us", "us"},
        {"pmcheck.crash_points_per_s", "1/s"},
        {"pmcheck.schedules_per_s", "1/s"},
        {"pmcheck.race_crashes", "count"},
        {"pmcheck.replay_steps_saved_ratio", "ratio"},
        {"pmcheck.recovery_steps_per_point", "count"},
        {"pmcheck.unverified_ratio", "ratio"},
        {"pmcheck.oplog_overflows", "count"},
        {"pmem.pages_copied_per_snapshot", "count"},
        // serve_ycsb
        {"vm.steps_per_op", "count"},
        {"vm.dispatches_per_op", "count"},
        {"vm.superinstruction_ratio", "ratio"},
        {"vm.host_ns_per_step", "ns"},
        {"vm.sim_ns_per_op", "ns"},
        {"pmem.flushes_per_op", "count"},
        {"pmem.fences_per_op", "count"},
        // serve_sharded
        {"shard.batch_us", "us"},
        {"shard.subops_per_op", "count"},
        {"shard.op_steps_per_op", "count"},
        {"shard.imbalance", "ratio"},
        // self time per item, by layer
        {"self_us.bench", "us"},
        {"self_us.ir", "us"},
        {"self_us.analysis", "us"},
        {"self_us.vm", "us"},
        {"self_us.pmcheck", "us"},
        {"self_us.core", "us"},
        {"self_us.shard", "us"},
    };
    return m;
}

RunResult
runWorkload(const RunOptions &opt)
{
    RunResult out;
    CpuRotor rotor;
    Tracer tracer(opt.trace);
    LayerStats layers;
    auto w = makeWorkload(opt.workload, opt.seed, tracer,
                          opt.trace ? &layers : nullptr);
    if (!w) {
        out.refused = "unknown workload " + opt.workload;
        return out;
    }
    pinAllocator(w->freshArenas());

    // Single-threaded workloads also set up on each CPU in turn.
    // ServeSharded's set-up starts worker threads, which would
    // inherit a one-CPU mask, so it stays where it is.
    std::vector<double> setups;
    double setup_total = 0;
    bool rotate = false;
    while (setups.size() < minSetupRepeats ||
           (setup_total < minSetupSeconds &&
            setups.size() < maxSetupRepeats)) {
        if (rotate)
            rotor.next();
        auto t0 = Clock::now();
        w->setup();
        setups.push_back(since(t0));
        setup_total += setups.back();
        if (!w->refused.empty()) {
            out.refused = w->refused;
            return out;
        }
        rotate = w->rotateItems() != 0;
    }
    auto r0 = Clock::now();
    w->reference();
    double ref_s = since(r0);

    double tail = w->tailPercentile();
    Timed t(w->window(), tail, &rotor, w->rotateItems());
    auto m0 = Clock::now();
    w->measure(opt.seconds, t);
    t.finish();
    double wall_s = since(m0);

    out.attempted = t.attempted;
    out.failed = t.failed;
    out.correct = t.failed == 0 && t.attempted > 0;

    std::vector<double> rates, p50s, p90s, tails;
    for (const Window &win : t.windows) {
        rates.push_back(win.rate);
        p50s.push_back(win.p50);
        p90s.push_back(win.p90);
        tails.push_back(win.tail);
    }
    // Each timing is the median over the run's windows: contention
    // on the host moves some windows, not the result. On a noisy
    // host the median spread less between runs than the quieter
    // quartile did.
    std::map<std::string, double> e2e = {
        {"setup_s", median(setups)},
        {"peak_rss_mb", peakRssMb()},
        {"items_per_s", median(rates)},
        {"latency_p50_us", median(p50s)},
        {"latency_p90_us", median(p90s)},
        {"latency_tail_us", median(tails)},
    };

    auto &rep = out.report;
    rep.push_back(format("workload %s seed %llu seconds %.3f trace %d",
                         opt.workload.c_str(), (unsigned long long)opt.seed,
                         opt.seconds, opt.trace ? 1 : 0));
    rep.push_back(format("host nproc %u compiler gcc-%s build %s "
                         "certify_jobs %u",
                         nproc(), __VERSION__, PERFBENCH_BUILD_TYPE,
                         certifyJobs));
    rep.push_back(format("items %llu failed %llu error_rate %.6f "
                         "busy_s %.3f wall_s %.3f reference_s %.3f",
                         (unsigned long long)t.attempted,
                         (unsigned long long)t.failed,
                         errorRate(t.attempted, t.failed), t.busyS, wall_s,
                         ref_s));
    std::string per_window;
    for (const Window &win : t.windows)
        per_window += format(" %.1f/%.3f", win.rate, win.p50);
    rep.push_back(format("windows of %zu items, items_per_s/p50_us:",
                         t.window()) +
                  per_window);
    rep.push_back(format("setup_s over %zu set-ups: min %.4f p25 %.4f "
                         "median %.4f p75 %.4f max %.4f",
                         setups.size(),
                         *std::min_element(setups.begin(), setups.end()),
                         percentile(setups, 25), median(setups),
                         percentile(setups, 75),
                         *std::max_element(setups.begin(), setups.end())));
    size_t n = t.window() ? t.window() : t.attempted;
    double supported = highestSupportedPercentile(n, {50, 90, 99});
    rep.push_back(format("latency_tail_us is p%g of windows of %zu items%s",
                         tail, n,
                         supported >= tail
                             ? ""
                             : " (too few samples beyond it)"));
    if (t.exhausted)
        rep.push_back("inputs exhausted before the run's seconds");
    for (const auto &why : t.failures)
        rep.push_back("failure: " + why);
    for (const auto &[name, unit] : endToEndMetrics())
        rep.push_back(format("metric %s %.6f %s", name.c_str(), e2e[name],
                             unit.c_str()));
    w->report(rep);

    if (!opt.trace) {
        for (const auto &[name, unit] : endToEndMetrics())
            out.metrics.push_back({name, e2e[name], unit});
        return out;
    }

    auto self_ns = tracer.selfNsByLayer();
    for (const auto &[name, unit] : perLayerMetrics()) {
        double v = layerValue(name, layers, self_ns, t.attempted);
        out.metrics.push_back({name, v, unit});
        rep.push_back(format("layer %s %.6f %s", name.c_str(), v,
                             unit.c_str()));
    }
    rep.push_back(format("spans closed %llu kept %zu",
                         (unsigned long long)tracer.spansClosed(),
                         tracer.kept().size()));
    if (!opt.spanDir.empty()) {
        std::string path = format("%s/%s-seed%llu.jsonl", opt.spanDir.c_str(),
                                  opt.workload.c_str(),
                                  (unsigned long long)opt.seed);
        rep.push_back(tracer.writeJsonl(path) ? "spans written to " + path
                                              : "cannot write " + path);
    }
    return out;
}

} // namespace perfbench
