/**
 * @file
 * The benchmark's module corpus and the pipeline stages every
 * workload shares: heal (the hippoc default pipeline with the static
 * pre-filter) and certify (verified optimization, then crash
 * exploration), each with its independent oracle.
 */

#include "analysis/durability_checker.hh"
#include "apps/bugsuite.hh"
#include "apps/pclht.hh"
#include "apps/pmcache.hh"
#include "apps/pmlog.hh"
#include "apps/racekv.hh"
#include "core/fixer.hh"
#include "core/flush_optimizer.hh"
#include "ir/builder.hh"
#include "ir/parser.hh"
#include "ir/printer.hh"
#include "ir/verifier.hh"
#include "perfbench.hh"
#include "pmcheck/detector.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace perfbench
{

using namespace hippo;

namespace
{

/** Pool size of the pipeline's own executions (as hippoc). */
constexpr uint64_t healPoolBytes = 64u << 20;

/** Crash every this many instructions, besides every durpoint. */
constexpr uint64_t certifyStepStride = 97;

/** Schedule budget of threaded modules' exploration. */
constexpr uint64_t certifySchedules = 16;

} // namespace

void
addKvDriver(ir::Module *m)
{
    ir::Function *f = m->addFunction("bench_drive", ir::Type::Int);
    ir::Argument *n = f->addParam(ir::Type::Int, "n");
    ir::BasicBlock *entry = f->addBlock("entry");
    ir::BasicBlock *loop = f->addBlock("loop");
    ir::BasicBlock *body = f->addBlock("body");
    ir::BasicBlock *done = f->addBlock("done");
    ir::IRBuilder b(m);
    auto call = [&](const char *name, std::vector<ir::Value *> args) {
        ir::Function *callee = m->findFunction(name);
        hippo_assert(callee, "pmkv entry missing");
        return b.createCall(callee, std::move(args));
    };

    b.setInsertPoint(entry);
    b.setLoc("bench_drive.c", 1);
    call("kv_init", {});
    ir::Instruction *iv = b.createAlloca(8);
    b.createStore(b.getInt(0), iv, 8);
    b.createBr(loop);

    b.setInsertPoint(loop);
    ir::Instruction *i = b.createLoad(iv, 8);
    b.createCondBr(b.createCmp(ir::CmpPred::Ult, i, n), body, done);

    // Every pmkv write path plus the volatile read paths, so the bug
    // finder's trace covers all of them (cf. KvDriver's coverage run).
    b.setInsertPoint(body);
    b.setLoc("bench_drive.c", 5);
    ir::Value *key = b.createAdd(b.createMul(i, b.getInt(7)), b.getInt(1));
    call("kv_handle_set", {key, b.getInt(24)});
    call("kv_handle_get", {key});
    call("kv_handle_update", {key, b.getInt(40)});
    call("kv_handle_rmw", {key, b.getInt(32)});
    call("kv_handle_scan", {key, b.getInt(4)});
    b.createStore(b.createAdd(i, b.getInt(1)), iv, 8);
    b.createBr(loop);

    b.setInsertPoint(done);
    b.setLoc("bench_drive.c", 12);
    b.createRet(call("kv_recover", {}));
}

std::string
pmkvText(const apps::PmkvConfig &cfg)
{
    auto m = apps::buildPmkv(cfg);
    addKvDriver(m.get());
    return ir::moduleToString(*m);
}

std::vector<CorpusModule>
buildCorpus()
{
    std::vector<CorpusModule> out;
    auto add = [&](std::string name, std::unique_ptr<ir::Module> m,
                   std::string entry, std::string recovery,
                   std::vector<uint64_t> sizes) {
        CorpusModule c;
        c.name = std::move(name);
        c.text = ir::moduleToString(*m);
        c.entry = std::move(entry);
        c.recovery = std::move(recovery);
        c.argSizes = std::move(sizes);
        out.push_back(std::move(c));
    };
    add("pmlog", apps::buildPmlog({}), "log_example", "log_walk",
        {8, 6, 7, 9, 10});
    add("pclht", apps::buildPclht({}), "clht_example", "clht_recover",
        {12, 10, 11, 13, 14});
    add("pmcache", apps::buildPmcache({}), "mc_example", "mc_recover",
        {24, 20, 22, 26, 28});
    add("racekv", apps::buildRaceKv({}), apps::raceKvEntry,
        apps::raceKvRecovery, {});
    out.back().certifyUnhealed = true;
    for (const apps::BugCase &c : apps::pmdkBugCases())
        add(c.id, c.build(false), c.entry, c.entry, {});

    CorpusModule kv;
    kv.name = "pmkv";
    kv.text = pmkvText({});
    kv.entry = "bench_drive";
    kv.recovery = "kv_recover";
    kv.argSizes = {4, 3, 5, 6};
    out.push_back(std::move(kv));
    return out;
}

// ---------------------------------------------------------------
// Heal
// ---------------------------------------------------------------

HealOutcome
healModule(const std::string &text, const std::string &entry,
           const std::vector<uint64_t> &args, Tracer &tracer,
           uint64_t item, LayerStats *layers)
{
    HealOutcome o;
    auto sample = [&](const char *name, double v) {
        if (layers)
            layers->sample(name, v);
    };
    auto ratio = [&](const char *name, double num, double den) {
        if (layers)
            layers->ratio(name, num, den);
    };

    std::string err;
    {
        ScopedSpan s(tracer, "ir.parse", item);
        o.module = ir::parseModule(text, &err);
        double us = s.end();
        sample("ir.parse_us", us);
        ratio("ir.parse_mb_per_s", (double)text.size() / 1e6, us / 1e6);
    }
    if (!o.module) {
        o.error = "parse error: " + err;
        return o;
    }
    ir::Module *m = o.module.get();
    {
        ScopedSpan s(tracer, "ir.verify", item);
        auto problems = ir::verifyModule(*m);
        sample("ir.verify_us", s.end());
        if (!problems.empty()) {
            o.error = "invalid module: " + problems.front();
            return o;
        }
    }

    analysis::StaticReport sreport;
    {
        ScopedSpan s(tracer, "analysis.static_check", item);
        analysis::StaticCheckerConfig scfg;
        scfg.entry = entry;
        sreport = analysis::checkDurability(*m, scfg);
        sample("analysis.static_check_us", s.end());
        ratio("analysis.static_candidates",
              (double)sreport.candidates.size(), 1);
    }

    double setup_us = 0;
    std::unique_ptr<pmem::PmPool> pool, vpool;
    std::unique_ptr<vm::Vm> machine, check;
    vm::VmConfig vc;
    vc.traceEnabled = true;
    {
        ScopedSpan s(tracer, "vm.setup", item);
        pool = std::make_unique<pmem::PmPool>(healPoolBytes);
        machine = std::make_unique<vm::Vm>(m, pool.get(), vc);
        setup_us += s.end();
    }
    {
        ScopedSpan s(tracer, "vm.traced_run", item);
        vm::RunResult run = machine->run(entry, args);
        sample("vm.traced_run_us", s.end());
        ratio("vm.traced_steps", (double)run.steps, 1);
        ratio("trace.events", (double)machine->trace().size(), 1);
        if (!run.ok()) {
            o.error = "bug-finder run: " + run.diag;
            return o;
        }
    }
    {
        ScopedSpan s(tracer, "pmcheck.detect", item);
        o.report = pmcheck::analyze(machine->trace());
        sample("pmcheck.detect_us", s.end());
        ratio("pmcheck.bugs_found", (double)o.report.bugs.size(), 1);
    }
    o.bugsFound = o.report.bugs.size();

    if (o.report.clean()) {
        o.recheckClean = true;
    } else {
        core::FixSummary summary;
        {
            ScopedSpan s(tracer, "core.fix", item);
            core::FixerConfig fcfg;
            fcfg.jobs = 1;
            fcfg.staticReport = &sreport;
            core::Fixer fixer(m, fcfg);
            summary = fixer.fix(o.report, machine->trace(),
                                &machine->dynPointsTo());
            sample("core.fix_us", s.end());
        }
        o.bugsFixed = summary.bugsFixed;
        ratio("core.fixes_planned", (double)summary.fixesPlanned, 1);
        ratio("core.fixes_after_reduction",
              (double)summary.fixesAfterReduction, 1);
        ratio("core.bugs_fixed_ratio", (double)summary.bugsFixed,
              (double)o.bugsFound);
        ratio("core.flushes_inserted", (double)summary.flushesInserted,
              1);
        ratio("core.fences_inserted", (double)summary.fencesInserted, 1);

        ScopedSpan recheck(tracer, "core.recheck", item);
        {
            ScopedSpan s(tracer, "vm.setup", item);
            vpool = std::make_unique<pmem::PmPool>(healPoolBytes);
            check = std::make_unique<vm::Vm>(m, vpool.get(), vc);
            setup_us += s.end();
        }
        vm::RunResult run;
        {
            ScopedSpan s(tracer, "vm.run", item);
            run = check->run(entry, args);
        }
        if (!run.ok()) {
            o.error = "re-check run: " + run.diag;
            return o;
        }
        {
            ScopedSpan s(tracer, "pmcheck.detect", item);
            o.recheckClean = pmcheck::analyze(check->trace()).clean();
        }
        sample("core.recheck_us", recheck.end());
        ratio("core.recheck_clean_ratio", o.recheckClean ? 1 : 0, 1);
    }
    sample("vm.setup_us", setup_us);
    {
        ScopedSpan s(tracer, "vm.teardown", item);
        check.reset();
        vpool.reset();
        machine.reset();
        pool.reset();
    }
    o.ok = true;
    return o;
}

std::string
treeReport(const std::string &text, const std::string &entry,
           const std::vector<uint64_t> &args)
{
    auto m = ir::parseModule(text);
    if (!m)
        return "unparseable";
    pmem::PmPool pool(healPoolBytes);
    vm::VmConfig vc;
    vc.traceEnabled = true;
    vc.engine = vm::VmEngine::Tree;
    vm::Vm machine(m.get(), &pool, vc);
    if (!machine.run(entry, args).ok())
        return "run failed";
    return pmcheck::analyze(machine.trace()).writeText();
}

bool
healCorrect(const HealOutcome &o, const std::string &ref_report)
{
    return o.ok && o.report.writeText() == ref_report &&
           o.recheckClean && o.bugsFixed == o.bugsFound;
}

// ---------------------------------------------------------------
// Certify
// ---------------------------------------------------------------

namespace
{

core::FlushOptVerifyConfig
optimizerConfig(const CertifyInput &in, unsigned jobs)
{
    core::FlushOptVerifyConfig oc;
    oc.entry = in.entry;
    oc.entryArgs = in.args;
    oc.recovery = in.recovery;
    if (in.recovery == in.entry)
        oc.recoveryArgs = in.args;
    oc.jobs = jobs;
    oc.faults = in.faults;
    return oc;
}

uint64_t
counterValue(const char *path)
{
    return support::MetricsRegistry::global().counter(path).value();
}

} // namespace

pmcheck::CrashExplorerConfig
certifyExplorerConfig(const CertifyInput &in, unsigned jobs)
{
    pmcheck::CrashExplorerConfig cc;
    cc.entry = in.entry;
    cc.entryArgs = in.args;
    cc.recovery = in.recovery;
    if (in.recovery == in.entry)
        cc.recoveryArgs = in.args;
    cc.exploreDurPoints = true;
    cc.stepStride = certifyStepStride;
    cc.jobs = jobs;
    cc.seed = in.faults.seed;
    cc.faults = in.faults;
    cc.schedules = certifySchedules;
    return cc;
}

CertifyOutcome
certifyModule(const CertifyInput &in, unsigned jobs,
              pmcheck::ExploreEngine engine, vm::VmEngine vm_engine,
              Tracer &tracer, uint64_t item, LayerStats *layers)
{
    CertifyOutcome o;
    std::unique_ptr<ir::Module> m;
    {
        ScopedSpan s(tracer, "ir.parse", item);
        m = ir::parseModule(in.text);
        double us = s.end();
        if (layers) {
            layers->sample("ir.parse_us", us);
            layers->ratio("ir.parse_mb_per_s",
                          (double)in.text.size() / 1e6, us / 1e6);
        }
    }
    if (!m)
        return o;

    {
        ScopedSpan s(tracer, "core.optimize_verify", item);
        auto outcome = core::optimizeAndVerify(m, optimizerConfig(in, jobs));
        double us = s.end();
        o.kept = outcome.verified && !outcome.reverted;
        o.flushesRemoved = outcome.stats.flushesRemoved();
        if (layers) {
            layers->sample("core.optimize_verify_us", us);
            layers->ratio("core.optimizer_kept_ratio", o.kept ? 1 : 0, 1);
            layers->ratio("core.flushes_removed", (double)o.flushesRemoved,
                          1);
        }
    }

    static const char *const counters[] = {
        "explorer.replay.steps_saved",  "explorer.replay.steps_executed",
        "explorer.recovery.steps",      "explorer.oplog.overflows",
        "explorer.snapshot.pages_copied", "explorer.snapshot.count",
    };
    constexpr size_t nCounters = std::size(counters);
    uint64_t before[nCounters] = {};
    if (layers)
        for (size_t i = 0; i < nCounters; i++)
            before[i] = counterValue(counters[i]);

    pmcheck::CrashExplorerConfig cc = certifyExplorerConfig(in, jobs);
    cc.engine = engine;
    cc.vmEngine = vm_engine;
    pmcheck::ExplorationResult res;
    {
        ScopedSpan s(tracer, "pmcheck.explore", item);
        res = pmcheck::exploreCrashes(m.get(), cc);
        double us = s.end();
        if (layers) {
            double d[nCounters];
            for (size_t i = 0; i < nCounters; i++)
                d[i] = (double)(counterValue(counters[i]) - before[i]);
            double points = (double)res.outcomes.size();
            layers->sample("pmcheck.explore_us", us);
            layers->ratio("pmcheck.crash_points_per_s", points, us / 1e6);
            layers->ratio("pmcheck.schedules_per_s",
                          (double)res.schedulesExecuted, us / 1e6);
            layers->ratio("pmcheck.race_crashes",
                          (double)res.raceCrashCount(), 1);
            layers->ratio("pmcheck.replay_steps_saved_ratio", d[0],
                          d[0] + d[1]);
            layers->ratio("pmcheck.recovery_steps_per_point", d[2], points);
            layers->ratio("pmcheck.unverified_ratio",
                          (double)res.unverifiedCount(), points);
            layers->ratio("pmcheck.oplog_overflows", d[3], 1);
            layers->ratio("pmem.pages_copied_per_snapshot", d[4], d[5]);
        }
    }
    o.ok = true;
    o.digest = pmcheck::recoveryDigest(res);
    o.crashPoints = res.outcomes.size();
    o.unverified = res.unverifiedCount();
    return o;
}

uint64_t
referenceDigest(const CertifyInput &in)
{
    Tracer off(false);
    CertifyOutcome o =
        certifyModule(in, 1, pmcheck::ExploreEngine::Legacy,
                      vm::VmEngine::Tree, off, 0, nullptr);
    return o.digest;
}

bool
certifyCorrect(const CertifyOutcome &o, uint64_t ref_digest)
{
    return o.ok && o.kept && o.digest == ref_digest;
}

} // namespace perfbench
