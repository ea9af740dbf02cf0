#include "sim/config.hh"

#include "sim/logging.hh"

namespace rr::sim
{

const char *
toString(RecorderMode mode)
{
    switch (mode) {
      case RecorderMode::Base:
        return "Base";
      case RecorderMode::Opt:
        return "Opt";
    }
    return "?";
}

const char *
toString(CoherenceKind kind)
{
    switch (kind) {
      case CoherenceKind::Snoopy:
        return "snoopy";
      case CoherenceKind::Directory:
        return "directory";
    }
    return "?";
}

namespace
{

/** The paper's four recorder policies, in PolicyIndex order. */
struct PaperPolicy
{
    const char *name;
    RecorderMode mode;
    std::uint64_t maxIntervalInstructions;
};

constexpr PaperPolicy kPaperPolicies[kNumPolicies] = {
    {"Base-4K", RecorderMode::Base, 4096},
    {"Base-INF", RecorderMode::Base, 0},
    {"Opt-4K", RecorderMode::Opt, 4096},
    {"Opt-INF", RecorderMode::Opt, 0},
};

} // namespace

std::vector<RecorderConfig>
fourPolicies()
{
    std::vector<RecorderConfig> out(kNumPolicies);
    for (int i = 0; i < kNumPolicies; ++i) {
        out[i].mode = kPaperPolicies[i].mode;
        out[i].maxIntervalInstructions =
            kPaperPolicies[i].maxIntervalInstructions;
    }
    return out;
}

const char *
policyName(int idx)
{
    return idx >= 0 && idx < kNumPolicies ? kPaperPolicies[idx].name : "?";
}

bool
parseCoherenceKind(const std::string &text, CoherenceKind &out)
{
    if (text == "snoopy") {
        out = CoherenceKind::Snoopy;
        return true;
    }
    if (text == "directory") {
        out = CoherenceKind::Directory;
        return true;
    }
    return false;
}

namespace
{

bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

void
validateCache(const char *name, const CacheConfig &c)
{
    if (c.sizeBytes == 0 || c.sizeBytes % (kLineBytes * c.associativity))
        fatal("%s: size must be a multiple of line*assoc", name);
    if (!isPow2(c.numSets()))
        fatal("%s: number of sets (%u) must be a power of two", name,
              c.numSets());
    if (c.mshrEntries == 0)
        fatal("%s: need at least one MSHR", name);
}

} // namespace

void
MachineConfig::validate() const
{
    if (numCores == 0)
        fatal("machine needs at least one core");
    if (core.robEntries == 0 || core.lsqEntries == 0)
        fatal("core queues must be non-empty");
    if (core.fetchWidth == 0 || core.retireWidth == 0)
        fatal("core widths must be non-zero");
    if (core.writeBufferEntries == 0)
        fatal("write buffer must be non-empty");
    if (!isPow2(core.predictorEntries))
        fatal("predictor entries must be a power of two");
    if (coherence == CoherenceKind::Directory && numCores > 64)
        fatal("directory coherence supports at most 64 cores "
              "(full-map sharer bitvector)");
    validateCache("L1", l1);
    validateCache("L2", l2);
}

} // namespace rr::sim
