#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "machine/machine.hh"
#include "rnr/log.hh"
#include "sim/trace.hh"
#include "workloads/kernels.hh"

namespace
{

using namespace rr;

machine::RecordingResult
recordFft()
{
    workloads::WorkloadParams wp;
    wp.numThreads = 2;
    wp.scale = 1;
    const auto w = workloads::buildKernel("fft", wp);
    sim::MachineConfig cfg;
    cfg.numCores = 2;
    std::vector<sim::RecorderConfig> pol(1);
    machine::Machine m(cfg, w.program, pol);
    return m.run();
}

/** Extract `"key":<number>` from a one-event JSON line. */
bool
numField(const std::string &line, const char *key, std::uint64_t &out)
{
    const std::string pat = std::string("\"") + key + "\":";
    const auto p = line.find(pat);
    if (p == std::string::npos)
        return false;
    out = std::strtoull(line.c_str() + p + pat.size(), nullptr, 10);
    return true;
}

TEST(Trace, EmittedFileIsWellFormedAndOrderedPerCore)
{
    const std::string path =
        ::testing::TempDir() + "rr_trace_test.json";
    ASSERT_FALSE(sim::TraceSink::enabled());
    sim::TraceSink::open(path);
    ASSERT_TRUE(sim::TraceSink::enabled());
    recordFft();
    EXPECT_GT(sim::TraceSink::get()->eventCount(), 0u);
    sim::TraceSink::close();
    EXPECT_FALSE(sim::TraceSink::enabled());

    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::string line;
    ASSERT_TRUE(std::getline(in, line));
    EXPECT_NE(line.find("\"traceEvents\""), std::string::npos);

    // The sink writes one event per line; a single-policy recording's
    // interval ("X") events per core track must be back-to-back in
    // time: each starts no earlier than the previous one ended.
    std::map<std::uint64_t, std::uint64_t> track_end; // tid -> last end
    std::size_t intervals = 0;
    std::size_t instants = 0;
    while (std::getline(in, line)) {
        if (line.find("\"ph\":\"X\"") != std::string::npos) {
            std::uint64_t pid = 0, tid = 0, ts = 0, dur = 0;
            ASSERT_TRUE(numField(line, "pid", pid)) << line;
            ASSERT_TRUE(numField(line, "tid", tid)) << line;
            ASSERT_TRUE(numField(line, "ts", ts)) << line;
            ASSERT_TRUE(numField(line, "dur", dur)) << line;
            if (pid != sim::TraceSink::kRecordPid)
                continue;
            ++intervals;
            const auto it = track_end.find(tid);
            if (it != track_end.end()) {
                EXPECT_GE(ts, it->second) << line;
            }
            track_end[tid] = ts + dur;
        } else if (line.find("\"ph\":\"i\"") != std::string::npos) {
            std::uint64_t ts = 0;
            EXPECT_TRUE(numField(line, "ts", ts)) << line;
            EXPECT_NE(line.find("\"s\":\"t\""), std::string::npos)
                << line;
            ++instants;
        }
    }
    EXPECT_GT(intervals, 0u);
    EXPECT_GT(instants, 0u);
    EXPECT_EQ(track_end.size(), 2u); // one interval track per core
    std::remove(path.c_str());
}

TEST(Trace, DisabledTracingIsBitIdentical)
{
    const machine::RecordingResult base = recordFft();

    const std::string path =
        ::testing::TempDir() + "rr_trace_identical.json";
    ASSERT_FALSE(sim::TraceSink::enabled());
    sim::TraceSink::open(path);
    const machine::RecordingResult traced = recordFft();
    sim::TraceSink::close();
    std::remove(path.c_str());

    EXPECT_EQ(base.totalInstructions, traced.totalInstructions);
    EXPECT_EQ(base.cycles, traced.cycles);
    EXPECT_EQ(base.memoryFingerprint, traced.memoryFingerprint);
    ASSERT_EQ(base.logs[0].size(), traced.logs[0].size());
    for (std::size_t c = 0; c < base.logs[0].size(); ++c) {
        const auto pa = rnr::pack(base.logs[0][c]);
        const auto pb = rnr::pack(traced.logs[0][c]);
        EXPECT_EQ(pa.bitCount, pb.bitCount) << "core " << c;
        EXPECT_EQ(pa.bytes, pb.bytes) << "core " << c;
    }
}

TEST(Trace, JobScopesMoveMachineEventsToAPidPerJob)
{
    const std::string path = ::testing::TempDir() + "rr_trace_jobs.json";
    ASSERT_FALSE(sim::TraceSink::enabled());
    sim::TraceSink::open(path);
    const auto emit = [] {
        sim::TraceSink::get()->instant(sim::TraceSink::kRecordPid, 1,
                                       "core", "probe", 7);
    };
    for (std::size_t job = 0; job < 2; ++job) {
        const sim::TraceJobScope scope(job, "fft");
        emit();
    }
    emit(); // outside any job: back on kRecordPid
    sim::TraceSink::close();

    std::ifstream in(path);
    ASSERT_TRUE(in);
    std::string line;
    std::vector<std::uint64_t> probe_pids;
    std::map<std::uint64_t, std::uint64_t> span_tid_by_job;
    std::vector<std::string> names;
    while (std::getline(in, line)) {
        std::uint64_t pid = 0, tid = 0, job = 0;
        if (line.find("\"probe\"") != std::string::npos) {
            ASSERT_TRUE(numField(line, "pid", pid)) << line;
            probe_pids.push_back(pid);
        } else if (line.find("\"cat\":\"sweep\"") != std::string::npos) {
            ASSERT_TRUE(numField(line, "pid", pid)) << line;
            EXPECT_EQ(pid, sim::TraceSink::kSweepPid) << line;
            ASSERT_TRUE(numField(line, "tid", tid)) << line;
            ASSERT_TRUE(numField(line, "job", job)) << line;
            span_tid_by_job[job] = tid;
        } else if (line.find("record fft, job") != std::string::npos) {
            names.push_back(line);
        }
    }
    const std::vector<std::uint64_t> want_pids = {2, 3,
                                                  sim::TraceSink::kRecordPid};
    EXPECT_EQ(probe_pids, want_pids);
    EXPECT_EQ(span_tid_by_job,
              (std::map<std::uint64_t, std::uint64_t>{{0, 0}, {1, 1}}));
    ASSERT_EQ(names.size(), 2u);
    EXPECT_NE(names[0].find("\"pid\":2"), std::string::npos) << names[0];
    EXPECT_NE(names[1].find("\"pid\":3"), std::string::npos) << names[1];
    std::remove(path.c_str());
}

} // namespace
