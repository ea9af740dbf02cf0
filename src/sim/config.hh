/**
 * @file
 * Configuration structs for the simulated machine and the RelaxReplay
 * recorder. Defaults reproduce Table 1 of the paper.
 */

#ifndef RR_SIM_CONFIG_HH
#define RR_SIM_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/types.hh"

namespace rr::sim
{

/** Core pipeline parameters (4-way OoO superscalar of Table 1). */
struct CoreConfig
{
    std::uint32_t fetchWidth = 4;
    std::uint32_t dispatchWidth = 4;
    std::uint32_t issueWidth = 4;
    std::uint32_t retireWidth = 4;
    std::uint32_t robEntries = 176;
    std::uint32_t lsqEntries = 128;
    std::uint32_t numLdStUnits = 2;
    std::uint32_t writeBufferEntries = 16;
    /** Extra cycles for a multiply beyond the 1-cycle ALU latency. */
    std::uint32_t mulLatency = 3;
    /** Cycles from mispredict detection to redirected fetch. */
    std::uint32_t branchRedirectPenalty = 3;
    /** Entries in the bimodal (2-bit counter) branch predictor. */
    std::uint32_t predictorEntries = 1024;
    /**
     * Maximum value of the NMI (non-memory instructions since the last
     * memory access) count attached to a TRAQ entry; a 4-bit field per
     * the paper. Longer gaps allocate NMI-group pseudo entries.
     */
    std::uint32_t nmiGroupLimit = 15;
};

/** One cache level. Line size is global (kLineBytes). */
struct CacheConfig
{
    std::uint32_t sizeBytes = 64 * 1024;
    std::uint32_t associativity = 4;
    std::uint32_t mshrEntries = 64;
    /** Round-trip hit latency, cycles. */
    std::uint32_t hitLatency = 2;

    std::uint32_t numSets() const
    {
        return sizeBytes / kLineBytes / associativity;
    }
};

/** Ring interconnect and memory timing (Table 1). */
struct UncoreConfig
{
    /** Per-hop delay on the ring, cycles. */
    std::uint32_t ringHopDelay = 1;
    /** Average L2 round-trip beyond the ring traversal, cycles. */
    std::uint32_t l2Latency = 12;
    /** Memory round-trip from L2, cycles. */
    std::uint32_t memLatency = 150;
};

/**
 * Which coherence backend the machine is built with (Section 4.3: the
 * recorder must work under either; see docs/COHERENCE.md).
 */
enum class CoherenceKind : std::uint8_t
{
    /** Ring-based snoopy MESI: every core observes every transaction. */
    Snoopy,
    /**
     * Home-directory MESI: per-line sharer/owner tracking; only the
     * cores the directory lists receive invalidations/forwards, and
     * losing tracking state (dirty eviction, back-invalidation)
     * triggers the conservative Snoop Table bump of Section 4.3.
     */
    Directory,
};

const char *toString(CoherenceKind kind);

/** Parse "snoopy"/"directory"; returns false on anything else. */
bool parseCoherenceKind(const std::string &text, CoherenceKind &out);

/** Which counting policy a recorder instance uses (Section 3.2). */
enum class RecorderMode
{
    /** Any access whose PISN != CISN at counting is logged as reordered. */
    Base,
    /** Snoop Table filters out accesses nobody observed in between. */
    Opt,
};

const char *toString(RecorderMode mode);

/** RelaxReplay recorder parameters (Table 1, bottom). */
struct RecorderConfig
{
    RecorderMode mode = RecorderMode::Opt;
    /**
     * Maximum interval size in counted instructions; 0 means unbounded
     * (the paper's "INF" configuration).
     */
    std::uint64_t maxIntervalInstructions = 0;
    std::uint32_t traqEntries = 176;
    /** Read/write signatures: 4 x 256-bit Bloom filters with H3 hashes. */
    std::uint32_t signatureBanks = 4;
    std::uint32_t signatureBitsPerBank = 256;
    /** Snoop Table: 2 arrays of 64 16-bit counters (RelaxReplay_Opt). */
    std::uint32_t snoopTableArrays = 2;
    std::uint32_t snoopTableEntries = 64;
    /** Bits in the NMI (non-memory instruction) field of a TRAQ entry. */
    std::uint32_t nmiBits = 4;
    /**
     * Record explicit inter-interval dependencies instead of relying
     * only on the global-timestamp total order (Section 3.6: pairing
     * RelaxReplay with a Cyrus/Karma-style ordering enables parallel
     * replay). When a core responds to or conflicts with another
     * core's transaction, it sends the requester an ordering edge to
     * its latest closed interval; the edges plus same-core program
     * order form a DAG that any topological replay order satisfies.
     */
    bool recordDependencies = false;
};

/** Indices into fourPolicies() and a recording's per-policy logs. */
enum PolicyIndex
{
    kBase4K = 0,
    kBaseInf = 1,
    kOpt4K = 2,
    kOptInf = 3,
    kNumPolicies = 4,
};

/** Base/Opt x 4K/INF, as evaluated throughout Section 5. */
std::vector<RecorderConfig> fourPolicies();

/** "Base-4K", "Base-INF", "Opt-4K" or "Opt-INF"; "?" past the table. */
const char *policyName(int idx);

/**
 * The most cores a recording may have: the service protocol, the
 * replay pipeline, the CLIs and the `.rrlog` reader refuse more.
 */
inline constexpr std::uint32_t kMaxCores = 256;

/** The whole machine. */
struct MachineConfig
{
    std::uint32_t numCores = 8;
    CoreConfig core;
    CacheConfig l1;                  // private, per core
    CacheConfig l2{512 * 1024, 16, 64, 12}; // per-core share of shared L2
    UncoreConfig uncore;
    CoherenceKind coherence = CoherenceKind::Snoopy;
    std::uint64_t seed = 1;

    /** Total shared L2 capacity across all per-core shares. */
    std::uint32_t totalL2Bytes() const { return l2.sizeBytes * numCores; }

    /** Abort with fatal() if the configuration is inconsistent. */
    void validate() const;
};

} // namespace rr::sim

#endif // RR_SIM_CONFIG_HH
