#include <algorithm>
#include <cmath>

#include "perfbench.hh"
#include "support/stopwatch.hh"

namespace perfbench
{

namespace
{

/** 1-based nearest rank of the @p p-th percentile of @p n samples. */
size_t
nearestRank(size_t n, double p)
{
    double r = std::ceil(p / 100.0 * (double)n - 1e-9);
    return std::clamp<size_t>((size_t)std::max(r, 1.0), 1, n);
}

} // namespace

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    size_t k = nearestRank(v.size(), p) - 1;
    std::nth_element(v.begin(), v.begin() + (ptrdiff_t)k, v.end());
    return v[k];
}

double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50);
}

bool
percentileSupported(size_t n, double p)
{
    return n > 0 && n - nearestRank(n, p) >= 10;
}

double
highestSupportedPercentile(size_t n,
                           const std::vector<double> &candidates)
{
    double best = -1;
    for (double p : candidates)
        if (percentileSupported(n, p))
            best = std::max(best, p);
    return best;
}

double
errorRate(uint64_t attempted, uint64_t failed)
{
    return attempted ? (double)failed / (double)attempted : 0;
}

double
peakRssMb()
{
    return (double)hippo::peakRssBytes() / (1024.0 * 1024.0);
}

} // namespace perfbench
