#include "sim/stats.hh"

#include <iomanip>

#include "sim/logging.hh"

namespace rr::sim
{

void
Histogram::merge(const Histogram &o)
{
    RR_ASSERT(binWidth_ == o.binWidth_ && bins_.size() == o.bins_.size(),
              "histogram merge shape mismatch (%llu/%zu vs %llu/%zu)",
              static_cast<unsigned long long>(binWidth_), bins_.size(),
              static_cast<unsigned long long>(o.binWidth_), o.bins_.size());
    for (std::size_t i = 0; i < bins_.size(); ++i)
        bins_[i] += o.bins_[i];
    total_ += o.total_;
}

Histogram &
StatSet::histogram(const std::string &name, std::uint64_t bin_width,
                   std::size_t num_bins)
{
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, Histogram(bin_width, num_bins))
                 .first;
    }
    return it->second;
}

void
StatSet::mergeFrom(const StatSet &o)
{
    for (const auto &[key, c] : o.counters_)
        counters_[key].merge(c);
    for (const auto &[key, s] : o.scalars_)
        scalars_[key].merge(s);
    for (const auto &[key, h] : o.histograms_)
        histogram(key, h.binWidth(), h.numBins() - 1).merge(h);
}

void
StatSet::print(std::ostream &os) const
{
    for (const auto &[key, c] : counters_)
        os << name_ << "." << key << " " << c.value() << "\n";
    for (const auto &[key, s] : scalars_) {
        os << name_ << "." << key << " mean=" << std::setprecision(6)
           << s.mean() << " min=" << s.min() << " max=" << s.max()
           << " n=" << s.count() << "\n";
    }
    for (const auto &[key, h] : histograms_) {
        os << name_ << "." << key << " histogram n=" << h.total()
           << " width=" << h.binWidth();
        for (std::size_t i = 0; i < h.numBins(); ++i) {
            if (h.binCount(i) == 0)
                continue;
            os << " [" << i * h.binWidth()
               << (i + 1 == h.numBins() ? "+" : "") << "]=" << h.binCount(i);
        }
        os << "\n";
    }
}

namespace
{

void
jsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (const char c : s) {
        if (c == '"' || c == '\\')
            os << '\\';
        os << c;
    }
    os << '"';
}

/** A double, or `null` for fields of an empty sample stream. */
void
jsonDouble(std::ostream &os, double v, bool is_null)
{
    if (is_null)
        os << "null";
    else
        os << std::setprecision(17) << v;
}

} // namespace

void
StatSet::toJson(std::ostream &os) const
{
    os << "{\"name\":";
    jsonString(os, name_);
    os << ",\"counters\":{";
    bool first = true;
    for (const auto &[key, c] : counters_) {
        if (!first)
            os << ',';
        first = false;
        jsonString(os, key);
        os << ':' << c.value();
    }
    os << "},\"scalars\":{";
    first = true;
    for (const auto &[key, s] : scalars_) {
        if (!first)
            os << ',';
        first = false;
        jsonString(os, key);
        const bool empty = s.count() == 0;
        os << ":{\"count\":" << s.count() << ",\"sum\":";
        jsonDouble(os, s.sum(), false);
        os << ",\"mean\":";
        jsonDouble(os, s.mean(), empty);
        os << ",\"min\":";
        jsonDouble(os, s.min(), empty);
        os << ",\"max\":";
        jsonDouble(os, s.max(), empty);
        os << '}';
    }
    os << "},\"histograms\":{";
    first = true;
    for (const auto &[key, h] : histograms_) {
        if (!first)
            os << ',';
        first = false;
        jsonString(os, key);
        os << ":{\"bin_width\":" << h.binWidth()
           << ",\"total\":" << h.total() << ",\"bins\":[";
        for (std::size_t i = 0; i < h.numBins(); ++i)
            os << (i ? "," : "") << h.binCount(i);
        os << "]}";
    }
    os << "}}";
}

void
writeStatsJson(std::ostream &os, const std::vector<const StatSet *> &sets)
{
    os << "[";
    for (std::size_t i = 0; i < sets.size(); ++i) {
        os << (i ? ",\n " : "\n ");
        sets[i]->toJson(os);
    }
    os << "\n]";
}

} // namespace rr::sim
