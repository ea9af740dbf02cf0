/**
 * @file
 * Golden recordings: a committed digest of the `.rrlog` bytes and of
 * the machine's statistics JSON for a fixed matrix of recordings. The
 * simulator is deterministic, so any change to cycle-level timing —
 * issue order, port use, squash, memory latency, the recorder —
 * changes a digest. A host-side optimisation must leave every row as
 * it is.
 *
 * Rows:
 *  - every kernel x Base/Opt x snoopy/directory x 4/8/16 cores
 *    (scale 1, interval cap 256, dependency edges), one gtest case per
 *    kernel;
 *  - the benchmark's record op (raytrace, scale 2, 8 cores, Opt,
 *    cap 128, edges, snoopy);
 *  - the racing random programs of RandomProgramRace, every seed under
 *    its four policies on one machine.
 *
 * Each log is streamed through a LogWriter into memory. A mismatch
 * prints the row in the table's own syntax with its new digests
 * ("golden-row:" lines); after a deliberate model change, paste every
 * printed line over its row to regenerate the table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "replay_check.hh"
#include "rnr/logstore.hh"
#include "sim/stats.hh"
#include "svc/pipeline.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;
using sim::CoherenceKind;
using sim::RecorderMode;

struct GoldenRow
{
    const char *row;
    std::uint64_t log;   ///< FNV-1a of the .rrlog bytes
    std::uint64_t stats; ///< FNV-1a of the machine's stats JSON
};

// clang-format off
const GoldenRow kGolden[] = {
    {"barnes/base/directory/4", 0x970eb00a9143d790ULL, 0x724c5dd1ef61fcd5ULL},
    {"barnes/base/directory/8", 0x817fcd1f780a624aULL, 0x62dde49952198dfcULL},
    {"barnes/base/directory/16", 0x2dd9320fc2a0c313ULL, 0xdae8af7ef5ed525dULL},
    {"barnes/base/snoopy/4", 0x7dcb4781a1838a32ULL, 0x53673f1c780cdab6ULL},
    {"barnes/base/snoopy/8", 0x0a9c3189c89a36f3ULL, 0xa6466d5215b727d1ULL},
    {"barnes/base/snoopy/16", 0x316a242b722a772fULL, 0x59cd830f65a90cc6ULL},
    {"barnes/opt/directory/4", 0x068ef56aa9a0eb79ULL, 0xb7a0a9615bc4eb13ULL},
    {"barnes/opt/directory/8", 0x7b6e9efe3ff753ddULL, 0x86a0c7323d862047ULL},
    {"barnes/opt/directory/16", 0x30e47aa48004fba2ULL, 0x5ed2b423d52c1689ULL},
    {"barnes/opt/snoopy/4", 0x50695fe949574b1fULL, 0x03c5e48eb71d4c8aULL},
    {"barnes/opt/snoopy/8", 0xbeddc12a7884d468ULL, 0xda9b7f244cc529b3ULL},
    {"barnes/opt/snoopy/16", 0x69cd3ff2580823aaULL, 0x8ad89a4e942dad28ULL},
    {"cholesky/base/directory/4", 0x92597d9ffdc93326ULL, 0x49923bf1f5d0a3bfULL},
    {"cholesky/base/directory/8", 0x32ff84cb21b7243fULL, 0xf88d5c07a14f0debULL},
    {"cholesky/base/directory/16", 0xcb57260600840665ULL, 0x089802959441e61fULL},
    {"cholesky/base/snoopy/4", 0x4bc12aaa24e435a8ULL, 0x8dc10fa3609efc38ULL},
    {"cholesky/base/snoopy/8", 0xfe6d658c5f44d53eULL, 0xa7ca7fb0c2579fabULL},
    {"cholesky/base/snoopy/16", 0xcfa37f140e39c354ULL, 0xb91badd599178eb5ULL},
    {"cholesky/opt/directory/4", 0x2ccb52a177c18911ULL, 0xe9210a85119b2a4eULL},
    {"cholesky/opt/directory/8", 0x13ccbd7a1ab9aab1ULL, 0x7db595ce700ed48eULL},
    {"cholesky/opt/directory/16", 0xe8c71a22359f617fULL, 0x51789bcde8c17b42ULL},
    {"cholesky/opt/snoopy/4", 0xf09163a3822d3309ULL, 0xe78c951bef0259f7ULL},
    {"cholesky/opt/snoopy/8", 0x42bbd4d247556060ULL, 0x82ccab95f7aef6cfULL},
    {"cholesky/opt/snoopy/16", 0xa6c5c6713948d87bULL, 0xafe81fdf340a163fULL},
    {"fft/base/directory/4", 0xe035ceb6dd24064dULL, 0x79b8f468d346977aULL},
    {"fft/base/directory/8", 0x58396f13483bdb41ULL, 0x88c147a5370db57dULL},
    {"fft/base/directory/16", 0xde4b00f57ddf05fbULL, 0x181e491662fd0c34ULL},
    {"fft/base/snoopy/4", 0x5ee6850147865bbaULL, 0xec72688f8ff0e0aaULL},
    {"fft/base/snoopy/8", 0x12491a9042bcdb78ULL, 0xf6d272bb74148afdULL},
    {"fft/base/snoopy/16", 0xe92a17f34aae8df0ULL, 0x0cbe9d9a24af8d3fULL},
    {"fft/opt/directory/4", 0x9b09deba42118efcULL, 0xdacd7e43f6b993e5ULL},
    {"fft/opt/directory/8", 0x689b84d9e4536966ULL, 0x58d7af5148e70bc5ULL},
    {"fft/opt/directory/16", 0xc33e81bfe1b93badULL, 0x8e1e2add2d8d5e54ULL},
    {"fft/opt/snoopy/4", 0x9770fb2c89a464adULL, 0x21fb12eba1afca15ULL},
    {"fft/opt/snoopy/8", 0x8ae485388d2cbcbaULL, 0xe611df61aa5894c7ULL},
    {"fft/opt/snoopy/16", 0x80b159c3ff52da02ULL, 0x23e8db003721f9b1ULL},
    {"fmm/base/directory/4", 0x1c7d01bcd880a5b3ULL, 0x824db1bfb940fee0ULL},
    {"fmm/base/directory/8", 0xf529ab49977e761cULL, 0xb308d7b3cd922dfcULL},
    {"fmm/base/directory/16", 0xc6e922e66a18380cULL, 0x115dc33dbd9d1985ULL},
    {"fmm/base/snoopy/4", 0xe9337803db4f79a9ULL, 0xee202a98859f46d1ULL},
    {"fmm/base/snoopy/8", 0x7aea8b61efe868a6ULL, 0xf986d30ac053df31ULL},
    {"fmm/base/snoopy/16", 0x7c8bc66473a699f1ULL, 0x5f23d2bd9448ec57ULL},
    {"fmm/opt/directory/4", 0x52051b4fd9b10ecbULL, 0x08f0bd85aac3182bULL},
    {"fmm/opt/directory/8", 0x09f6688998412bedULL, 0x98f0b067bdc1d50bULL},
    {"fmm/opt/directory/16", 0x74d0a0ffbf83cb44ULL, 0xab38eac3b935f75bULL},
    {"fmm/opt/snoopy/4", 0x7cd20fcf88d9cefcULL, 0xb5c3e26da1f94fe1ULL},
    {"fmm/opt/snoopy/8", 0x217368ecd955a33dULL, 0x72f7c9e6d84348a7ULL},
    {"fmm/opt/snoopy/16", 0x58bf041290911edaULL, 0x0e94b8779d6fab0bULL},
    {"lu/base/directory/4", 0x486306b7e237ef6fULL, 0xf1aa261884443befULL},
    {"lu/base/directory/8", 0x58340412b888a510ULL, 0x6349c031239ee337ULL},
    {"lu/base/directory/16", 0xd7f8b2f88b53bb58ULL, 0xff32a3ef09b3a34eULL},
    {"lu/base/snoopy/4", 0xdf6f24cbe5599f0aULL, 0x8c3019841f4b746dULL},
    {"lu/base/snoopy/8", 0xd8cb43b1c53e2c3bULL, 0xa30c9e8e04fda00eULL},
    {"lu/base/snoopy/16", 0xfe71f1d4a5e99010ULL, 0x81c1ec9db9d1bcfcULL},
    {"lu/opt/directory/4", 0x000fa1d5e18b052dULL, 0x28f5af8cfebee832ULL},
    {"lu/opt/directory/8", 0x1711e4d772c7f0d7ULL, 0x35f808742b871091ULL},
    {"lu/opt/directory/16", 0x5c9a1c41fb89d766ULL, 0x3d34e4ef313f9748ULL},
    {"lu/opt/snoopy/4", 0x78bbb805e0bbaf40ULL, 0x19a640ecbaedf519ULL},
    {"lu/opt/snoopy/8", 0x34146a94f1cf8952ULL, 0x74ea106d61a65336ULL},
    {"lu/opt/snoopy/16", 0x8a5a0cf51105473eULL, 0x0f40b75acdba24c2ULL},
    {"ocean/base/directory/4", 0xfd117bdf6554f85aULL, 0xaa6578a313950572ULL},
    {"ocean/base/directory/8", 0xff1574d1f63f2cfbULL, 0xcfc834384589a29dULL},
    {"ocean/base/directory/16", 0xeb16088caf2a056dULL, 0x0c0875c0237786b7ULL},
    {"ocean/base/snoopy/4", 0x2dfd383b45a862a4ULL, 0x5cf295bc77883f56ULL},
    {"ocean/base/snoopy/8", 0x1d5c1e234b483c23ULL, 0x4b9af651bfe6d5d5ULL},
    {"ocean/base/snoopy/16", 0x3a87c855e05b77a4ULL, 0x603605d0e50cb928ULL},
    {"ocean/opt/directory/4", 0xc4aa4d3aa8809c7aULL, 0x40a091f5a33bcae6ULL},
    {"ocean/opt/directory/8", 0x281fd9e0638b49f8ULL, 0x6cb443399dd18b0bULL},
    {"ocean/opt/directory/16", 0x3cb37e2b3e82c508ULL, 0x4ec384ef1ed18b1aULL},
    {"ocean/opt/snoopy/4", 0xb8fbbc6e64ce5001ULL, 0xde71b91ef1b6dceeULL},
    {"ocean/opt/snoopy/8", 0x5a8b911b72a0bcdbULL, 0x8c3d20fd8d87bdeaULL},
    {"ocean/opt/snoopy/16", 0xb8d7a8f75afb34e5ULL, 0xa5458fca393b67e5ULL},
    {"radix/base/directory/4", 0xab3e7e0fc7216e27ULL, 0x74e950999386b9a7ULL},
    {"radix/base/directory/8", 0xca9dee3f14ef2b14ULL, 0x2e0bb0cb2a094309ULL},
    {"radix/base/directory/16", 0x49fbbe72eb551dffULL, 0x712fc1d5798069f4ULL},
    {"radix/base/snoopy/4", 0x14184757fc230922ULL, 0x469ee3bd42610ce9ULL},
    {"radix/base/snoopy/8", 0xe901db42c1229193ULL, 0x686d78afa5b8c0b6ULL},
    {"radix/base/snoopy/16", 0xc05adc13b73ce9aaULL, 0x53107778f4c9c81dULL},
    {"radix/opt/directory/4", 0xb86af830e2033891ULL, 0x4d0fc7ce2adabdc0ULL},
    {"radix/opt/directory/8", 0xfb0f77c3d0ff9bdaULL, 0x576f70aa7f8e9f59ULL},
    {"radix/opt/directory/16", 0x608cc735f5a32717ULL, 0x298cff3ceb89dae5ULL},
    {"radix/opt/snoopy/4", 0x18bca87a07529373ULL, 0xd8d89502bbd6f79dULL},
    {"radix/opt/snoopy/8", 0xdbe4fc3546c507d5ULL, 0xb200a4935f5eb3ddULL},
    {"radix/opt/snoopy/16", 0x00e974fd3c35f59cULL, 0x646e700dab3a9c80ULL},
    {"raytrace/base/directory/4", 0x41443860cc8bb06fULL, 0x7ef8f757b27c8a4bULL},
    {"raytrace/base/directory/8", 0x357ac684ac986c08ULL, 0xaf0b35c17f0672a0ULL},
    {"raytrace/base/directory/16", 0x4f8f3ac9df3574dbULL, 0x79efbe085a55127fULL},
    {"raytrace/base/snoopy/4", 0x857d9b920bd2e284ULL, 0x4de5ba9b9bab9f7cULL},
    {"raytrace/base/snoopy/8", 0x2766cc0dd69fa56bULL, 0x0a7db7eacf55aedcULL},
    {"raytrace/base/snoopy/16", 0x8277f96618cc0726ULL, 0x5fb53dd9bee526b9ULL},
    {"raytrace/opt/directory/4", 0x5797451b5f45a128ULL, 0x9d03f25148f9c814ULL},
    {"raytrace/opt/directory/8", 0x67048201993f0e86ULL, 0xb6f4761ce603add8ULL},
    {"raytrace/opt/directory/16", 0xfe5563cf76e2d88dULL, 0x8b2f8292d91ab03cULL},
    {"raytrace/opt/snoopy/4", 0x8d74a0a9a2763551ULL, 0x1d4e406b9ad72bc8ULL},
    {"raytrace/opt/snoopy/8", 0x2bc95af255cbf974ULL, 0xe610bdb057548487ULL},
    {"raytrace/opt/snoopy/16", 0x83524df27d81d291ULL, 0x17ba0182432f75f7ULL},
    {"water-nsq/base/directory/4", 0x0c0f690a05271ebeULL, 0xbaa59d56cf5aedecULL},
    {"water-nsq/base/directory/8", 0x37ff4b9a61e28764ULL, 0xcb68218acf78f0a5ULL},
    {"water-nsq/base/directory/16", 0xa5ed882e1e76a723ULL, 0x30597675abeff08fULL},
    {"water-nsq/base/snoopy/4", 0xa57c88ae90f05279ULL, 0x0d31a595a0d8e4afULL},
    {"water-nsq/base/snoopy/8", 0x23da5200bfc07033ULL, 0x2da0675ad96f4086ULL},
    {"water-nsq/base/snoopy/16", 0x92aa8b60ce795e3bULL, 0x8d2cf494de23f4e8ULL},
    {"water-nsq/opt/directory/4", 0xe42d1e727ae5ba7dULL, 0x32d14aad146eb166ULL},
    {"water-nsq/opt/directory/8", 0x0e101ab4bf7cd33eULL, 0xa5be55a8f89aaf5dULL},
    {"water-nsq/opt/directory/16", 0xc13418f3f0f6d2e5ULL, 0xc1c33ab09fc6d9d0ULL},
    {"water-nsq/opt/snoopy/4", 0x8efaca29d0dede7eULL, 0x2f36bd37b2818a6fULL},
    {"water-nsq/opt/snoopy/8", 0x9f6cb1cabfe78bdeULL, 0x8bd09fe920321ff0ULL},
    {"water-nsq/opt/snoopy/16", 0xb0afed835ff5e73cULL, 0x99f34ae582009797ULL},
    {"water-sp/base/directory/4", 0xe693531a191986a7ULL, 0x085c795bbcdc3d04ULL},
    {"water-sp/base/directory/8", 0xf72bb5bd47d80644ULL, 0x076f9bfad3b51e84ULL},
    {"water-sp/base/directory/16", 0x004a7a79ae76caeaULL, 0x9dee3f3100a2489cULL},
    {"water-sp/base/snoopy/4", 0xbc10c4e114d97219ULL, 0x1806b70a92ae5d19ULL},
    {"water-sp/base/snoopy/8", 0xc34c42a81b7f2ed3ULL, 0x8f43b3bc72195e2cULL},
    {"water-sp/base/snoopy/16", 0xfebf002e314ed156ULL, 0x36804e49005354a6ULL},
    {"water-sp/opt/directory/4", 0x02911d906a0fd8d5ULL, 0x8fd9c6564d3c4933ULL},
    {"water-sp/opt/directory/8", 0x5cabb9eca72e94f0ULL, 0x3afd76ad3a167942ULL},
    {"water-sp/opt/directory/16", 0xbfbdb15dbc763202ULL, 0x5075af00d6c27c91ULL},
    {"water-sp/opt/snoopy/4", 0x15e846f04698f0b8ULL, 0xc60353b1067da1f1ULL},
    {"water-sp/opt/snoopy/8", 0xa4518a2e96067c70ULL, 0xb87d649a8931956aULL},
    {"water-sp/opt/snoopy/16", 0x1f99eef26a21d9e9ULL, 0xc0b815373f63ede2ULL},
    {"bench-record", 0xe5119871027ca09dULL, 0x302691b8d0a8a167ULL},
    {"race2000", 0xc4a909cd0fe8b461ULL, 0xe6ada69048abe972ULL},
    {"race2001", 0xc173cdc5f3543546ULL, 0x6bf2e8d7fc710cfaULL},
    {"race2002", 0x67eb5f3b64444437ULL, 0xd67d43bb68d8b8d9ULL},
    {"race2003", 0x4dadd4de1b1578b4ULL, 0x020828e25d98d0a1ULL},
    {"race2004", 0x4be320f73a95738eULL, 0x613e5b21f086b285ULL},
    {"race2005", 0x56d40cde42135f73ULL, 0x4b55d3210737c9e8ULL},
    {"race2006", 0xa395f4c803aeeb1eULL, 0x6394691d44b48083ULL},
    {"race2007", 0xdafe534827249babULL, 0x6e0cb7fe1e09a262ULL},
    {"race2008", 0x38576601318fc3beULL, 0x9f6f6917118f1f32ULL},
    {"race2009", 0xa81e2a26c4e03ce1ULL, 0x883c54403f1f8b1aULL},
};
// clang-format on

std::uint64_t
fnv1a(const std::string &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : bytes) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
statsJson(machine::Machine &m)
{
    std::vector<const sim::StatSet *> sets;
    m.collectStats(sets);
    std::ostringstream os;
    sim::writeStatsJson(os, sets);
    return os.str();
}

/** Compare one recording's digests with its table row. */
void
expectGolden(const std::string &row, const std::string &log_bytes,
             const std::string &stats_json)
{
    const std::uint64_t log = fnv1a(log_bytes);
    const std::uint64_t stats = fnv1a(stats_json);
    const GoldenRow *want = nullptr;
    for (const GoldenRow &g : kGolden)
        if (row == g.row)
            want = &g;
    if (want && want->log == log && want->stats == stats)
        return;
    char line[160];
    std::snprintf(line, sizeof line, "{\"%s\", 0x%016llxULL, 0x%016llxULL},",
                  row.c_str(), static_cast<unsigned long long>(log),
                  static_cast<unsigned long long>(stats));
    ADD_FAILURE() << (want ? "digest mismatch" : "row missing from the table")
                  << " for " << row << (want && want->log != log ? " (log)" : "")
                  << (want && want->stats != stats ? " (stats)" : "")
                  << "\ngolden-row: " << line;
}

/** Record @p p's kernel into memory and check its row. */
void
checkJob(const std::string &row, const svc::JobParams &p)
{
    std::ostringstream log;
    svc::CancelToken token;
    svc::Recording run;
    {
        rnr::LogWriter writer(log, svc::recordingMeta(p));
        run = svc::record(p, token, &writer);
    }
    expectGolden(row, log.str(), statsJson(*run.machine));
}

const char *
modeName(RecorderMode m)
{
    return m == RecorderMode::Base ? "base" : "opt";
}

class GoldenRecordings : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenRecordings, KernelMatrixMatchesTable)
{
    for (const RecorderMode mode : {RecorderMode::Base, RecorderMode::Opt})
        for (const CoherenceKind coh :
             {CoherenceKind::Snoopy, CoherenceKind::Directory})
            for (const std::uint32_t cores : {4u, 8u, 16u}) {
                svc::JobParams p;
                p.kernel = GetParam();
                p.cores = cores;
                p.scale = 1;
                p.mode = mode;
                p.intervalCap = 256;
                p.deps = true;
                p.coherence = coh;
                checkJob(p.kernel + "/" + modeName(mode) + "/" +
                             sim::toString(coh) + "/" +
                             std::to_string(cores),
                         p);
            }
}

std::string
kernelCaseName(const ::testing::TestParamInfo<std::string> &info)
{
    std::string s = info.param;
    for (char &c : s)
        if (c == '-')
            c = '_';
    return s;
}

INSTANTIATE_TEST_SUITE_P(Kernels, GoldenRecordings,
                         ::testing::ValuesIn(workloads::kernelNames()),
                         kernelCaseName);

TEST(GoldenRecordingsBench, RecordOpMatchesTable)
{
    svc::JobParams p;
    p.kernel = "raytrace";
    p.cores = 8;
    p.scale = 2;
    p.mode = RecorderMode::Opt;
    p.intervalCap = 128;
    p.deps = true;
    p.coherence = CoherenceKind::Snoopy;
    checkJob("bench-record", p);
}

TEST(GoldenRecordingsRace, RandomProgramsMatchTable)
{
    using check::policy;
    const std::vector<sim::RecorderConfig> policies = {
        policy(RecorderMode::Base, 128), policy(RecorderMode::Opt, 0),
        policy(RecorderMode::Base, 128, true),
        policy(RecorderMode::Opt, 0, true)};
    for (int seed = 2000; seed < 2010; ++seed) {
        const std::string name = "race" + std::to_string(seed);
        sim::MachineConfig cfg;
        cfg.numCores = 4;
        machine::Machine m(cfg, check::randomProgram(seed, true), policies);
        std::vector<std::ostringstream> logs(policies.size());
        std::vector<std::unique_ptr<rnr::LogWriter>> writers;
        for (std::size_t i = 0; i < policies.size(); ++i) {
            svc::JobParams p;
            p.kernel = name;
            p.cores = cfg.numCores;
            p.mode = policies[i].mode;
            p.intervalCap = policies[i].maxIntervalInstructions;
            p.deps = policies[i].recordDependencies;
            rnr::LogWriter *w =
                writers
                    .emplace_back(std::make_unique<rnr::LogWriter>(
                        logs[i], svc::recordingMeta(p)))
                    .get();
            m.setIntervalSink(i, [w](sim::CoreId c,
                                     const rnr::IntervalRecord &iv) {
                w->append(c, iv);
            });
        }
        const machine::RecordingResult rec = m.run();
        std::string bytes;
        for (std::size_t i = 0; i < policies.size(); ++i) {
            rnr::RecordingSummary s = svc::recordingSummary(rec);
            for (std::size_t c = 0; c < s.cores.size(); ++c)
                s.cores[c].intervals = rec.logs[i][c].intervals.size();
            writers[i]->finish(s);
            bytes += logs[i].str();
        }
        expectGolden(name, bytes, statsJson(m));
    }
}

} // namespace
