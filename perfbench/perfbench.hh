/**
 * @file
 * The wall-clock benchmark's shared declarations: statistics, the
 * benchmark-side span tracer, the module corpus, and the four
 * workloads (heal_corpus, certify_corpus, serve_ycsb, serve_sharded).
 *
 * Everything here times the repository's libraries from outside:
 * spans wrap calls into a layer, work counts come from the public
 * Vm/PmPool accessors and from MetricsRegistry counter deltas. See
 * perfbench/README.md for the metric map.
 */

#ifndef PERFBENCH_PERFBENCH_HH
#define PERFBENCH_PERFBENCH_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "apps/pmkv.hh"
#include "ir/module.hh"
#include "pmcheck/crash_explorer.hh"
#include "pmcheck/detector.hh"
#include "pmem/pm_pool.hh"
#include "vm/vm.hh"
#include "ycsb/ycsb.hh"

namespace perfbench
{

// ---------------------------------------------------------------
// Statistics (stats.cc)
// ---------------------------------------------------------------

/** Nearest-rank percentile @p p (0-100] of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);

/** Median of @p v (nearest-rank p50); 0 when empty. */
double median(std::vector<double> v);

/**
 * True when @p n samples leave at least 10 samples strictly above
 * the nearest-rank @p p-th percentile.
 */
bool percentileSupported(size_t n, double p);

/**
 * The highest of @p candidates that percentileSupported() accepts
 * for @p n samples; negative when none is.
 */
double highestSupportedPercentile(size_t n,
                                  const std::vector<double> &candidates);

/** failed / attempted; 0 for an empty run. */
double errorRate(uint64_t attempted, uint64_t failed);

/** Peak resident set size of this process in MiB. */
double peakRssMb();

// ---------------------------------------------------------------
// Span tracer (tracer.cc)
// ---------------------------------------------------------------

/**
 * Benchmark-side spans. Each span records its name, start, end,
 * parent and item id; the first 200 000 spans are kept in
 * memory and written out at the end, while per-layer self time
 * (a span's duration minus the time its children cover) is
 * accumulated for every span. A span's layer is its name up to the
 * first '.'. Disabled tracers read no clock.
 */
class Tracer
{
  public:
    struct Span
    {
        const char *name;
        int64_t startNs;
        int64_t endNs;
        int64_t parent; ///< index of the parent span, -1 for a root
        uint64_t item;
    };

    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }

    /** Open a span; returns its id, or -1 when disabled. */
    int64_t begin(const char *name, uint64_t item);

    /** Close the innermost span @p id; returns its duration in us. */
    double end(int64_t id);

    /** Self time per layer, in nanoseconds, over every closed span. */
    std::map<std::string, double> selfNsByLayer() const;

    uint64_t spansClosed() const { return closed_; }
    const std::vector<Span> &kept() const { return kept_; }

    /** Write the kept spans as JSON lines; false on I/O failure. */
    bool writeJsonl(const std::string &path) const;

  private:
    struct Open
    {
        int64_t id;
        const char *name;
        int64_t startNs;
        int64_t childNs;
    };

    int64_t now() const;
    size_t layerOf(const char *name);

    bool enabled_;
    std::chrono::steady_clock::time_point origin_;
    std::vector<Open> stack_;
    std::vector<Span> kept_;
    uint64_t opened_ = 0;
    uint64_t closed_ = 0;
    std::unordered_map<const char *, size_t> layerIndex_;
    std::vector<std::string> layerNames_;
    std::vector<double> layerSelfNs_;
};

/** RAII span; end() closes early and returns the duration in us. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer &t, const char *name, uint64_t item)
        : t_(t), id_(t.begin(name, item))
    {}
    ~ScopedSpan() { end(); }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    double
    end()
    {
        if (done_)
            return us_;
        done_ = true;
        us_ = t_.end(id_);
        return us_;
    }

  private:
    Tracer &t_;
    int64_t id_;
    bool done_ = false;
    double us_ = 0;
};

/**
 * Per-layer measurements of a traced run: per-item samples (reported
 * as medians) and numerator/denominator sums (reported as ratios).
 */
struct LayerStats
{
    std::map<std::string, std::vector<double>> samples;
    std::map<std::string, std::pair<double, double>> ratios;

    void sample(const std::string &name, double v)
    {
        samples[name].push_back(v);
    }
    void ratio(const std::string &name, double num, double den)
    {
        auto &r = ratios[name];
        r.first += num;
        r.second += den;
    }
};

// ---------------------------------------------------------------
// Module corpus (corpus.cc)
// ---------------------------------------------------------------

/** One buggy module of the corpus, as PMIR text. */
struct CorpusModule
{
    std::string name;
    std::string text;     ///< buggy PMIR
    std::string entry;
    std::string recovery; ///< recovery entry for exploration
    /** Candidate sizes for the entry's single argument; empty when
     *  the entry takes none. The first is the default. */
    std::vector<uint64_t> argSizes;
    /** Certified as built, without healing (racekv: keeps the
     *  cross-thread race so the explorer's race forks run). */
    bool certifyUnhealed = false;
};

/**
 * Every buggy module the repository builds: pmlog, pclht, pmcache,
 * racekv, the 11 PMDK reproducers, and the flush-free pmkv with the
 * synthesized @bench_drive entry.
 */
std::vector<CorpusModule> buildCorpus();

/**
 * Append @bench_drive(n) to a pmkv module: kv_init, then n rounds of
 * set/get/update/rmw/scan over distinct keys, returning kv_recover().
 */
void addKvDriver(hippo::ir::Module *m);

/** Flush-free pmkv with @bench_drive, as PMIR text. */
std::string pmkvText(const hippo::apps::PmkvConfig &cfg);

// ---------------------------------------------------------------
// Pipeline stages shared by workloads and the self-test
// ---------------------------------------------------------------

/** Result of healing one module (the hippoc default pipeline). */
struct HealOutcome
{
    std::unique_ptr<hippo::ir::Module> module;
    bool ok = false;        ///< parsed, verified, runs succeeded
    std::string error;      ///< why !ok
    hippo::pmcheck::Report report; ///< the bug finder's report
    size_t bugsFound = 0;
    size_t bugsFixed = 0;
    bool recheckClean = false;
};

/**
 * Parse, verify, statically check, run traced, detect, fix and
 * re-check one module, with spans around every layer call. When
 * @p layers is non-null, per-layer work and times are recorded.
 */
HealOutcome healModule(const std::string &text, const std::string &entry,
                       const std::vector<uint64_t> &args, Tracer &tracer,
                       uint64_t item, LayerStats *layers);

/** The Tree-engine bug-finder report of a module: heal's oracle. */
std::string treeReport(const std::string &text, const std::string &entry,
                       const std::vector<uint64_t> &args);

/** Heal's output check: same report as the oracle, clean re-check
 *  with every found bug fixed. */
bool healCorrect(const HealOutcome &o, const std::string &ref_report);

/** One certification input: a healed module and its fault plan. */
struct CertifyInput
{
    std::string name;
    std::string text; ///< healed (or, for racekv, buggy) PMIR
    std::string entry, recovery;
    std::vector<uint64_t> args;
    hippo::pmem::FaultPlan faults;
};

/** Result of certifying one module. */
struct CertifyOutcome
{
    bool ok = false; ///< parsed and explored
    bool kept = false; ///< optimizer result verified, not reverted
    size_t flushesRemoved = 0;
    uint64_t digest = 0; ///< recoveryDigest of the exploration
    uint64_t crashPoints = 0;
    uint64_t unverified = 0;
};

/** Explorer knobs shared by the timed certification and its oracle. */
hippo::pmcheck::CrashExplorerConfig
certifyExplorerConfig(const CertifyInput &in, unsigned jobs);

/**
 * optimizeAndVerify with the torn-store fault leg, then
 * exploreCrashes (durpoints plus a step stride) with @p engine and
 * @p vm_engine, spans around each call.
 */
CertifyOutcome certifyModule(const CertifyInput &in, unsigned jobs,
                             hippo::pmcheck::ExploreEngine engine,
                             hippo::vm::VmEngine vm_engine,
                             Tracer &tracer, uint64_t item,
                             LayerStats *layers);

/** The Legacy + Tree exploration digest of the optimized module. */
uint64_t referenceDigest(const CertifyInput &in);

/** Certify's output check: kept, and the oracle's digest. */
bool certifyCorrect(const CertifyOutcome &o, uint64_t ref_digest);

// ---------------------------------------------------------------
// KV serving inputs, model and checks
// ---------------------------------------------------------------

/** One pre-generated KV op. */
struct KvOp
{
    hippo::ycsb::OpType type = hippo::ycsb::OpType::Read;
    uint64_t key = 0;
    uint64_t arg = 0; ///< value length (writes) or scan length
};

/** True for the op types that append a kv.log entry. */
inline bool
isWrite(hippo::ycsb::OpType t)
{
    return t == hippo::ycsb::OpType::Insert ||
           t == hippo::ycsb::OpType::Update ||
           t == hippo::ycsb::OpType::ReadModifyWrite;
}

/** Bytes per write: apps::KvDriver's default, which is YCSB's
 *  default field length. */
constexpr uint64_t kvValLen = 100;

/** Shape of a serve plan: store geometry and stream sizes. */
struct KvShape
{
    uint64_t records = 0;    ///< loaded before timing
    uint64_t segmentOps = 0; ///< ops of each core workload per epoch
    uint64_t buckets = 0;    ///< power of two
};

/** One core workload's stretch of an epoch's op stream. */
struct KvSegment
{
    hippo::ycsb::Workload workload;
    size_t begin = 0, end = 0; ///< op indices [begin, end)
};

/**
 * Pre-generated inputs of one serve epoch plus the store geometry
 * sized to hold every planned write. An epoch runs the YCSB core
 * workloads A-F back to back, each for the same op count (as the
 * Fig. 4 bench does), from the repository's ycsb::Generator: its
 * reference mixes and scrambled-Zipfian, latest and uniform keys.
 * Each segment starts from the records the previous ones left.
 */
struct KvPlan
{
    KvShape shape;
    std::vector<KvOp> load; ///< YCSB load: inserts of keys 0..records-1
    std::vector<KvOp> ops;
    std::vector<KvSegment> segments;
    uint64_t logNeed = 0;     ///< kv.log bytes every write appends
    uint64_t logCapacity = 0; ///< bytes of kv.log
    uint64_t poolBytes = 0;
};

/** Entry bytes pmkv appends for a write of @p val_len. */
uint64_t kvEntryBytes(uint64_t val_len);

/** Generate a plan from @p seed; sizes kv.log for every write. */
KvPlan makeKvPlan(const KvShape &shape, uint64_t seed);

/**
 * True when kv.log holds the plan's logNeed, the pool holds the pmkv
 * regions, and the regions fit the crash explorer's default pool
 * (the set-up certifies the served module).
 */
bool kvPlanFits(const KvPlan &plan);

/** The kv.log head of a store (the next append offset), read from
 *  its kv.meta region at @p meta_base. */
uint64_t kvLogHead(const hippo::pmem::PmPool &pool, uint64_t meta_base);

/** True when the store's log head has passed a kv.log of
 *  @p log_capacity bytes: later writes spilled past the region. */
bool kvLogOverrun(const hippo::pmem::PmPool &pool, uint64_t meta_base,
                  uint64_t log_capacity);

/** Host-side key model: expected results of a plan's ops. */
struct KvExpect
{
    std::vector<uint64_t> results; ///< per op: get/scan value, else 0
    uint64_t recoverCount = 0;     ///< kv_recover after the epoch
};

KvExpect modelKv(const KvPlan &plan);

/** Serialize a plan's inputs (byte-identical for equal seeds). */
std::string serializePlan(const KvPlan &plan);

/** The pmkv handler KvDriver::execute calls for op type @p t. */
const std::string &kvFunction(hippo::ycsb::OpType t);

/** Serve's per-op output check: the run succeeded and a get or scan
 *  returned what the key model expects. */
bool kvOpCorrect(const KvOp &op, const hippo::vm::RunResult &r,
                 uint64_t expected);

/** Serve's end-of-epoch check: kv_recover succeeded and found one
 *  entry per write of the model. */
bool kvRecoverCorrect(const hippo::vm::RunResult &r, const KvExpect &e);

/** The pipeline's output pmkv for @p plan's geometry: healed with
 *  the full heuristic, then optimized and verified (kept). Throws
 *  when either stage fails. */
std::unique_ptr<hippo::ir::Module> servedModule(const KvPlan &plan);

// ---------------------------------------------------------------
// Heal/certify rounds
// ---------------------------------------------------------------

/** One item of a round: a corpus module and its argument size. */
struct RoundItem
{
    uint32_t module = 0;
    uint32_t size = 0; ///< index into the module's argSizes
    bool operator==(const RoundItem &) const = default;
};

/** @p count rounds, each visiting every module once in a seeded
 *  order; with @p vary_sizes each item also draws its size. */
std::vector<std::vector<RoundItem>>
makeRounds(const std::vector<CorpusModule> &corpus, uint64_t seed,
           size_t count, bool vary_sizes);

// ---------------------------------------------------------------
// Workloads (workloads.cc)
// ---------------------------------------------------------------

struct RunOptions
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string spanDir; ///< where traced runs write their spans
};

struct Metric
{
    std::string name;
    double value = 0;
    std::string unit;
};

struct RunResult
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    /** End-to-end metrics untraced, per-layer metrics traced. */
    std::vector<Metric> metrics;
    std::vector<std::string> report; ///< human-readable lines
    /** Set when the plan is refused before measuring. */
    std::string refused;
};

/** Names of the workloads, in BENCHMARK.json order. */
const std::vector<std::string> &workloadNames();

RunResult runWorkload(const RunOptions &opt);

/** Every end-to-end metric name with its unit. */
const std::vector<std::pair<std::string, std::string>> &endToEndMetrics();

/** Every per-layer metric name with its unit. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

} // namespace perfbench

#endif // PERFBENCH_PERFBENCH_HH
