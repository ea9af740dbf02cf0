/**
 * @file
 * Lightweight statistics: named counters, scalar samples and binned
 * histograms, grouped into StatSet objects that can be printed, merged
 * hierarchically, and serialized to JSON or CSV for machine-readable
 * experiment output (`rrsim --stats-json`, bench `--stats-json`).
 */

#ifndef RR_SIM_STATS_HH
#define RR_SIM_STATS_HH

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <type_traits>
#include <vector>

namespace rr::sim
{

/** A monotonically increasing named event counter. */
class Counter
{
  public:
    void operator+=(std::uint64_t n) { value_ += n; }
    void operator++() { ++value_; }
    void operator++(int) { ++value_; }
    std::uint64_t value() const { return value_; }
    void reset() { value_ = 0; }

    /** Fold another counter in (hierarchical aggregation). */
    void merge(const Counter &o) { value_ += o.value_; }

  private:
    std::uint64_t value_ = 0;
};

/**
 * Running mean/min/max of a scalar sample stream (e.g. queue occupancy
 * sampled every cycle).
 *
 * An empty stream has no minimum or maximum: min()/max()/mean() return
 * 0.0 for convenience in arithmetic, but that value is indistinguishable
 * from a real 0 sample — consumers that must tell the two apart check
 * count() == 0 first, and the JSON export serializes the three fields as
 * `null` for empty streams.
 */
class ScalarStat
{
  public:
    /** Record one sample. */
    void
    sample(double v)
    {
        sum_ += v;
        ++count_;
        if (count_ == 1 || v < min_)
            min_ = v;
        if (count_ == 1 || v > max_)
            max_ = v;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }
    double min() const { return count_ ? min_ : 0.0; }
    double max() const { return count_ ? max_ : 0.0; }

    /** Fold another sample stream in (hierarchical aggregation). */
    void
    merge(const ScalarStat &o)
    {
        if (o.count_ == 0)
            return;
        if (count_ == 0) {
            *this = o;
            return;
        }
        sum_ += o.sum_;
        count_ += o.count_;
        if (o.min_ < min_)
            min_ = o.min_;
        if (o.max_ > max_)
            max_ = o.max_;
    }

    void
    reset()
    {
        sum_ = min_ = max_ = 0.0;
        count_ = 0;
    }

  private:
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
    std::uint64_t count_ = 0;
};

/**
 * Fixed-bin-width histogram; samples beyond the last bin land in an
 * overflow bucket. Used e.g. for the TRAQ-occupancy distribution of
 * the paper's Figure 12 (bin width 10).
 */
class Histogram
{
  public:
    Histogram() : Histogram(10, 20) {}

    /**
     * @param bin_width Width of each bin.
     * @param num_bins Number of regular bins before the overflow bucket.
     */
    Histogram(std::uint64_t bin_width, std::size_t num_bins)
        : binWidth_(bin_width), bins_(num_bins + 1, 0)
    {
    }

    /** Record one sample. */
    void
    sample(std::uint64_t v)
    {
        std::size_t idx = static_cast<std::size_t>(v / binWidth_);
        if (idx >= bins_.size())
            idx = bins_.size() - 1;
        ++bins_[idx];
        ++total_;
    }

    std::uint64_t binWidth() const { return binWidth_; }
    /** Number of bins, including the final overflow bucket. */
    std::size_t numBins() const { return bins_.size(); }
    std::uint64_t binCount(std::size_t i) const { return bins_.at(i); }
    std::uint64_t total() const { return total_; }

    /** Fraction of all samples that fell into bin i. */
    double
    binFraction(std::size_t i) const
    {
        return total_ ? static_cast<double>(bins_.at(i)) / total_ : 0.0;
    }

    /** Fold another histogram in; shapes must match (asserted). */
    void merge(const Histogram &o);

  private:
    std::uint64_t binWidth_;
    std::vector<std::uint64_t> bins_;
    std::uint64_t total_ = 0;
};

/**
 * A named, ordered collection of counters, scalar stats and histograms.
 * Modules own a StatSet and register their statistics by name; harnesses
 * print, merge or serialize them generically.
 */
class StatSet
{
  public:
    explicit StatSet(std::string name = "") : name_(std::move(name)) {}

    /** Get-or-create a counter by name. */
    Counter &counter(const std::string &name) { return counters_[name]; }
    /** Get-or-create a scalar stat by name. */
    ScalarStat &scalar(const std::string &name) { return scalars_[name]; }
    /**
     * Get-or-create a histogram by name. The shape arguments only apply
     * on creation; an existing histogram is returned as-is.
     */
    Histogram &histogram(const std::string &name,
                         std::uint64_t bin_width = 10,
                         std::size_t num_bins = 20);

    /** Read a counter; returns 0 when absent. */
    std::uint64_t
    counterValue(const std::string &name) const
    {
        auto it = counters_.find(name);
        return it == counters_.end() ? 0 : it->second.value();
    }

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }
    const std::map<std::string, Counter> &counters() const
    {
        return counters_;
    }
    const std::map<std::string, ScalarStat> &scalars() const
    {
        return scalars_;
    }
    const std::map<std::string, Histogram> &histograms() const
    {
        return histograms_;
    }

    /**
     * Hierarchical merge: fold every statistic of @p o into this set by
     * name (counters add, scalar streams combine, histogram bins add).
     * The other set's name is ignored.
     */
    void mergeFrom(const StatSet &o);

    /** Pretty-print all statistics, one per line, prefixed by set name. */
    void print(std::ostream &os) const;

    /**
     * Serialize as one JSON object:
     * {"name":..., "counters":{...}, "scalars":{...}, "histograms":{...}}.
     * Empty scalar streams serialize mean/min/max as null (see
     * ScalarStat).
     */
    void toJson(std::ostream &os) const;

  private:
    std::string name_;
    std::map<std::string, Counter> counters_;
    std::map<std::string, ScalarStat> scalars_;
    std::map<std::string, Histogram> histograms_;
};

/**
 * One counter or scalar stat of a StatSet, looked up by name on first
 * use and cached after. Per-cycle and per-instruction paths hold one
 * instead of calling StatSet::counter()/scalar() per event, which
 * builds a std::string and searches a std::map every time. The stat is
 * created on first use, as a direct lookup would create it, so the
 * set's contents and exports do not change.
 */
template <typename Stat>
class StatHandle
{
  public:
    StatHandle(StatSet &set, const char *name) : set_(set), name_(name) {}
    // A copy inside a copied owner would still count into the original
    // owner's set.
    StatHandle(const StatHandle &) = delete;
    StatHandle &operator=(const StatHandle &) = delete;

    Stat &
    operator*()
    {
        if (!stat_) {
            if constexpr (std::is_same_v<Stat, Counter>)
                stat_ = &set_.counter(name_);
            else
                stat_ = &set_.scalar(name_);
        }
        return *stat_;
    }
    Stat *operator->() { return &**this; }

  private:
    StatSet &set_;
    const char *name_;
    Stat *stat_ = nullptr;
};

using CounterHandle = StatHandle<Counter>;
using ScalarHandle = StatHandle<ScalarStat>;

/**
 * Write several stat sets as one JSON array (the payload of
 * `--stats-json` outputs).
 */
void writeStatsJson(std::ostream &os,
                    const std::vector<const StatSet *> &sets);

} // namespace rr::sim

#endif // RR_SIM_STATS_HH
