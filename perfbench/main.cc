/**
 * @file
 * perfbench — runs one benchmark workload and prints its metrics.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--span-dir DIR]
 *
 * Prints a human-readable report, then, as the last line of standard
 * output, one JSON object with the keys correct, attempted, failed
 * and metrics (end-to-end metrics untraced, per-layer metrics
 * traced). Exit codes: 0 measured (check "correct"), 1 the set-up
 * failed, 2 usage error, 3 the plan was refused before measuring.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "perfbench.hh"

namespace
{

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--span-dir DIR]\n"
                 "workloads: heal_corpus certify_corpus serve_ycsb "
                 "serve_sharded\n",
                 argv0);
    std::exit(2);
}

bool
parseUnsigned(const char *s, uint64_t &out)
{
    char *end = nullptr;
    unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || s[0] == '-')
        return false;
    out = v;
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    perfbench::RunOptions opt;
    bool have_workload = false;
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage(argv[0]);
        const char *v = argv[++i];
        uint64_t n = 0;
        if (a == "--workload") {
            opt.workload = v;
            have_workload = true;
        } else if (a == "--seed" && parseUnsigned(v, n)) {
            opt.seed = n;
        } else if (a == "--seconds" && parseUnsigned(v, n) && n > 0 &&
                   n <= 600) {
            opt.seconds = (double)n;
        } else if (a == "--trace" && parseUnsigned(v, n) && n <= 1) {
            opt.trace = n == 1;
        } else if (a == "--span-dir") {
            opt.spanDir = v;
        } else {
            usage(argv[0]);
        }
    }
    const auto &names = perfbench::workloadNames();
    if (!have_workload ||
        std::find(names.begin(), names.end(), opt.workload) == names.end())
        usage(argv[0]);

    perfbench::RunResult res;
    try {
        res = perfbench::runWorkload(opt);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
    if (!res.refused.empty()) {
        std::fprintf(stderr, "perfbench: %s\n", res.refused.c_str());
        return 3;
    }

    for (const std::string &line : res.report)
        std::printf("%s\n", line.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {",
                res.correct ? "true" : "false",
                (unsigned long long)res.attempted,
                (unsigned long long)res.failed);
    for (size_t i = 0; i < res.metrics.size(); i++) {
        const auto &m = res.metrics[i];
        double v = std::isfinite(m.value) ? m.value : 0;
        std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                    i ? ", " : "", m.name.c_str(), v, m.unit.c_str());
    }
    std::printf("}}\n");
    return 0;
}
