#include <cstdio>

#include "perfbench.hh"

namespace perfbench
{

namespace
{

constexpr size_t keepLimit = 200000;

} // namespace

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now())
{}

int64_t
Tracer::now() const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
}

size_t
Tracer::layerOf(const char *name)
{
    auto it = layerIndex_.find(name);
    if (it != layerIndex_.end())
        return it->second;
    std::string layer(name);
    layer = layer.substr(0, layer.find('.'));
    size_t idx = layerNames_.size();
    for (size_t i = 0; i < layerNames_.size(); i++)
        if (layerNames_[i] == layer)
            idx = i;
    if (idx == layerNames_.size()) {
        layerNames_.push_back(layer);
        layerSelfNs_.push_back(0);
    }
    layerIndex_.emplace(name, idx);
    return idx;
}

int64_t
Tracer::begin(const char *name, uint64_t item)
{
    if (!enabled_)
        return -1;
    int64_t id = (int64_t)opened_++;
    int64_t parent = stack_.empty() ? -1 : stack_.back().id;
    int64_t start = now();
    if (kept_.size() < keepLimit)
        kept_.push_back(Span{name, start, -1, parent, item});
    layerOf(name);
    stack_.push_back(Open{id, name, start, 0});
    return id;
}

double
Tracer::end(int64_t id)
{
    if (id < 0 || stack_.empty() || stack_.back().id != id)
        return 0;
    int64_t t = now();
    Open o = stack_.back();
    stack_.pop_back();
    int64_t dur = t - o.startNs;
    if ((size_t)id < kept_.size())
        kept_[(size_t)id].endNs = t;
    closed_++;
    if (!stack_.empty())
        stack_.back().childNs += dur;
    layerSelfNs_[layerOf(o.name)] += (double)(dur - o.childNs);
    return (double)dur / 1000.0;
}

std::map<std::string, double>
Tracer::selfNsByLayer() const
{
    std::map<std::string, double> out;
    for (size_t i = 0; i < layerNames_.size(); i++)
        out[layerNames_[i]] += layerSelfNs_[i];
    return out;
}

bool
Tracer::writeJsonl(const std::string &path) const
{
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    for (size_t i = 0; i < kept_.size(); i++) {
        const Span &s = kept_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%lld,\"item\":%llu}\n",
                     i, s.name, (long long)s.startNs, (long long)s.endNs,
                     (long long)s.parent, (unsigned long long)s.item);
    }
    return std::fclose(f) == 0;
}

} // namespace perfbench
