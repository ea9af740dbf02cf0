/**
 * @file
 * The shared record -> replay-and-verify pipeline (svc/pipeline.hh)
 * and the two front ends on it: every verdict and refusal, asserted
 * through svc::replayAndVerify / svc::runJob in-process and through
 * the exit code of the rrsim binary on the same file — including the
 * files of unsound_logs.hh, which replay must refuse before the
 * engine's assertions see them or end as a typed divergence.
 */

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "svc/job_runner.hh"
#include "svc/pipeline.hh"
#include "unsound_logs.hh"

namespace
{

using namespace rr;
using svc::Verdict;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "rr_pipeline_" + name + "_" +
           std::to_string(::getpid()) + ".rrlog";
}

/**
 * Exit code of `BIN ARGS`, run under a deadline: a tool still running
 * after 60 s is killed (exit code 137). Its stderr lands in @p err
 * when set.
 */
int
runTool(const std::string &bin, const std::string &args,
        std::string *err = nullptr)
{
    const std::string err_path = tempPath("stderr") + ".txt";
    const std::string cmd = "timeout -s KILL 60 " + bin + " " + args +
                            " >/dev/null 2>" + err_path;
    const int status = std::system(cmd.c_str());
    if (err) {
        std::ifstream in(err_path);
        err->assign(std::istreambuf_iterator<char>(in), {});
    }
    std::remove(err_path.c_str());
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/** Exit code of `rrsim ARGS` (see runTool). */
int
rrsim(const std::string &args, std::string *err = nullptr)
{
    return runTool(RRSIM_BIN, args, err);
}

svc::JobParams
fftParams()
{
    svc::JobParams p;
    p.kind = svc::JobKind::Record;
    p.kernel = "fft";
    p.cores = 2;
    return p;
}

svc::JobParams
replayParams(const std::string &file)
{
    svc::JobParams p;
    p.kind = svc::JobKind::Replay;
    p.file = file;
    return p;
}

/** A 2-core fft recording shared by every case. */
class Pipeline : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        run_ = new svc::Recording(
            svc::record(fftParams(), svc::CancelToken{}));
    }

    static void
    TearDownTestSuite()
    {
        delete run_;
        run_ = nullptr;
    }

    void
    TearDown() override
    {
        for (const std::string &path : written_)
            std::remove(path.c_str());
    }

    static rnr::RecordingSummary
    summary()
    {
        return svc::recordingSummary(run_->rec);
    }

    /**
     * Write the shared recording to a fresh file under @p meta with
     * @p sum as its Summary; @p partial flags it as a partial
     * recording. @return its path.
     */
    std::string
    write(const std::string &name, const rnr::RecordingSummary &sum,
          bool partial = false,
          const rnr::RecordingMeta &meta = svc::recordingMeta(fftParams()))
    {
        const std::string path = tempPath(name);
        written_.push_back(path);
        rnr::LogWriter w(path, meta);
        const auto &logs = run_->rec.logs[0];
        for (sim::CoreId c = 0; c < logs.size(); ++c)
            for (const auto &iv : logs[c].intervals)
                w.append(c, iv);
        if (partial)
            w.finishPartial(&sum);
        else
            w.finish(sum);
        return path;
    }

    static svc::Recording *run_;
    std::vector<std::string> written_;
};

svc::Recording *Pipeline::run_ = nullptr;

TEST_F(Pipeline, VerdictsOverTheSharedPathAndRrsimExitCodes)
{
    rnr::RecordingSummary flipped = summary();
    flipped.cores[1].loadValueHash ^= 1;

    struct Row
    {
        const char *name;
        std::string file;
        bool allowPartial = false;
        bool askDirectory = false; ///< explicit coherence: directory
        /** The verdict, or nullopt when the replay is refused. */
        std::optional<Verdict> verdict;
        int exitCode = 0; ///< rrsim's; a refusal's errorClass too
        const char *determinism = nullptr; ///< a refusal's tag
        /** A refusal's reason, a failed job's message when the replay
         *  diverges, or (PartialOk) the intervals the cut keeps: "all"
         *  or "some". */
        const char *detail = nullptr;
        /** Part of the divergence report's `actual`, when the replay
         *  diverges. */
        const char *divergence = nullptr;
        std::uint32_t jobs = 1;
    };
    std::vector<Row> rows = {
        {"ok", write("ok", summary()), false, false, Verdict::Ok, 0},
        {"mismatch", write("mismatch", flipped), false, false,
         Verdict::Mismatch, 1},
        {"partial-refused", write("partial", summary(), true), false,
         false, std::nullopt, 1, "partial-refused"},
        {"coherence-mismatch", write("coherence", summary()), false, true,
         std::nullopt, 1, "coherence-mismatch"},
        {"salvaged-prefix", write("salvage", summary(), true), true, false,
         Verdict::PartialOk, 0, nullptr, "all"},
    };
    // Sound containers whose logs break a replay invariant are refused
    // before replay; those whose replay stores outside the image
    // diverge, on the walk and, given edges, fanned out over 4 workers;
    // a file missing a data chunk replays the prefix before the hole.
    for (const auto &log : testlogs::writeUnsoundLogs(
             tempPath("unsound") + "_")) {
        written_.push_back(log.path);
        if (log.allowPartial)
            rows.push_back({log.name, log.path, true, false,
                            Verdict::PartialOk, 0, nullptr, "some"});
        else if (log.divergence)
            for (const std::uint32_t jobs : {1u, 4u})
                rows.push_back({log.name, log.path, false, false,
                                std::nullopt, 1, nullptr, log.refusal,
                                log.divergence, jobs});
        else
            rows.push_back({log.name, log.path, false, false, std::nullopt,
                            1, nullptr, log.refusal});
    }

    for (const Row &row : rows) {
        SCOPED_TRACE(std::string(row.name) + " at jobs " +
                     std::to_string(row.jobs));
        svc::JobParams p = replayParams(row.file);
        p.allowPartial = row.allowPartial;
        p.jobs = row.jobs;
        if (row.askDirectory) {
            p.coherence = sim::CoherenceKind::Directory;
            p.coherenceSet = true;
        }

        try {
            const svc::ReplayOutcome out =
                svc::replayAndVerify(p, svc::CancelToken{});
            ASSERT_TRUE(row.verdict.has_value());
            EXPECT_EQ(out.verdict, *row.verdict);
            EXPECT_EQ(out.parallel, out.meta.deps);
            EXPECT_EQ(out.meta.kernel, "fft");
            if (*row.verdict == Verdict::Mismatch) {
                EXPECT_EQ(out.mismatchedCores,
                          std::vector<sim::CoreId>{1});
            } else {
                EXPECT_TRUE(out.mismatchedCores.empty());
            }
            if (*row.verdict == Verdict::PartialOk &&
                std::string(row.detail) == "all") {
                EXPECT_EQ(out.salvage.kept, run_->stats.intervals);
                EXPECT_EQ(out.result.instructions,
                          run_->rec.totalInstructions);
            } else if (*row.verdict == Verdict::PartialOk) {
                EXPECT_GT(out.salvage.kept, 0u);
                EXPECT_LT(out.salvage.kept, run_->stats.intervals);
                EXPECT_LT(out.result.instructions,
                          run_->rec.totalInstructions);
            }
        } catch (const svc::JobRefused &e) {
            ASSERT_FALSE(row.verdict.has_value()) << e.what();
            ASSERT_EQ(row.divergence, nullptr) << e.what();
            EXPECT_EQ(e.errorClass, row.exitCode);
            if (row.determinism) {
                ASSERT_NE(e.determinism, nullptr);
                EXPECT_STREQ(e.determinism, row.determinism);
            } else {
                EXPECT_EQ(e.determinism, nullptr);
                EXPECT_NE(std::string(e.what()).find(row.detail),
                          std::string::npos)
                    << e.what();
            }
        } catch (const rnr::ReplayDivergence &d) {
            ASSERT_NE(row.divergence, nullptr) << d.what();
            EXPECT_NE(d.report().actual.find(row.divergence),
                      std::string::npos)
                << d.what();
            EXPECT_NE(d.report().expected.find("-byte memory image"),
                      std::string::npos)
                << d.what();
        }

        const svc::JobOutcome job = svc::runJob(p, svc::CancelToken{});
        EXPECT_EQ(job.ok, row.exitCode == 0);
        EXPECT_EQ(job.errorClass, row.exitCode);
        if (row.divergence) {
            EXPECT_NE(job.message.find(row.detail), std::string::npos)
                << job.message;
        }

        std::string args = "replay " + row.file;
        if (row.allowPartial)
            args += " --allow-partial";
        if (row.askDirectory)
            args += " --coherence directory";
        if (row.jobs != 1)
            args += " --jobs " + std::to_string(row.jobs);
        std::string err;
        EXPECT_EQ(rrsim(args, &err), row.exitCode) << err;
        if (row.divergence) {
            EXPECT_NE(err.find(row.divergence), std::string::npos) << err;
        } else if (!row.verdict && !row.determinism) {
            EXPECT_NE(err.find(row.detail), std::string::npos) << err;
        }
        if (row.verdict == Verdict::Mismatch) {
            EXPECT_NE(err.find("core 1 mismatch"), std::string::npos)
                << err;
            EXPECT_EQ(err.find("core 0 mismatch"), std::string::npos)
                << err;
        }
    }
}

TEST_F(Pipeline, RequestTheSimulatorCannotBuildIsInvalid)
{
    // Directory coherence tracks sharers in a 64-bit vector; the
    // protocol admits up to 256 cores. Refused before anything is
    // built, instead of the machine's fatal() ending the process.
    svc::JobParams p = fftParams();
    p.cores = 100;
    p.coherence = sim::CoherenceKind::Directory;
    p.coherenceSet = true;
    const svc::JobOutcome out = svc::runJob(p, svc::CancelToken{});
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.errorClass, 2);
    EXPECT_EQ(out.errorClassName(), "INVALID");
    EXPECT_NE(out.message.find("64 cores"), std::string::npos)
        << out.message;

    p.kind = svc::JobKind::Replay;
    EXPECT_EQ(svc::runJob(p, svc::CancelToken{}).errorClass, 2);

    EXPECT_EQ(rrsim("record fft --cores 100 --coherence directory"), 2);
    EXPECT_EQ(rrsim("replay fft --cores 0"), 2);
}

TEST_F(Pipeline, FileNamingAnUnknownKernelIsCorrupt)
{
    rnr::RecordingMeta meta = svc::recordingMeta(fftParams());
    meta.kernel = "nosuch";
    const std::string path = write("nosuch", summary(), false, meta);
    EXPECT_TRUE(rnr::LogReader(path).verify().empty());

    const svc::JobOutcome out =
        svc::runJob(replayParams(path), svc::CancelToken{});
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.errorClass, 1);
    EXPECT_NE(out.message.find("unknown kernel 'nosuch'"),
              std::string::npos)
        << out.message;
    EXPECT_EQ(rrsim("replay " + path), 1);
}

TEST_F(Pipeline, SummaryShorterThanTheHeaderIsCorrupt)
{
    rnr::RecordingSummary short_summary = summary();
    short_summary.cores.resize(1);
    const std::string path = write("short", short_summary);

    svc::JobParams p = replayParams(path);
    const svc::JobOutcome out = svc::runJob(p, svc::CancelToken{});
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.errorClass, 1);
    EXPECT_EQ(out.message, "summary core count disagrees with header");
    EXPECT_EQ(rrsim("replay " + path), 1);

    // Without a sound Summary, only the salvaged prefix replays.
    p.allowPartial = true;
    const svc::ReplayOutcome salvaged =
        svc::replayAndVerify(p, svc::CancelToken{});
    EXPECT_EQ(salvaged.verdict, Verdict::PartialOk);
    EXPECT_TRUE(svc::runJob(p, svc::CancelToken{}).ok);
    EXPECT_EQ(rrsim("replay " + path + " --allow-partial"), 0);
}

TEST_F(Pipeline, HeaderNamingTooManyCoresIsCorrupt)
{
    // The reader sizes its per-core tables from the header's core
    // count, so it refuses a count outside [1, sim::kMaxCores] before
    // anything else: the file is corrupt, the job a MISMATCH, and every
    // tool exits 1 instead of dying of std::bad_alloc.
    const std::string path = tempPath("huge_cores");
    written_.push_back(path);
    testlogs::writeHugeCoreCountLog(path);
    struct stat st = {};
    ASSERT_EQ(::stat(path.c_str(), &st), 0);
    EXPECT_EQ(st.st_size, 105);
    const std::string want = "header names 4294967295 cores; a recording "
                             "has 1 to 256 (file offset 16)";
    try {
        rnr::LogReader reader(path);
        ADD_FAILURE() << "the reader opened the file";
    } catch (const rnr::LogStoreError &e) {
        EXPECT_EQ(e.what(), want);
        EXPECT_EQ(e.fileOffset(), 16u);
        EXPECT_EQ(e.chunkSeq(), -1);
        EXPECT_EQ(e.kind(), rnr::LogErrorKind::Format);
    }

    const svc::JobOutcome out =
        svc::runJob(replayParams(path), svc::CancelToken{});
    EXPECT_FALSE(out.ok);
    EXPECT_EQ(out.errorClassName(), "MISMATCH");
    EXPECT_EQ(out.message, want);

    std::string err;
    EXPECT_EQ(rrsim("replay " + path, &err), 1) << err;
    EXPECT_NE(err.find(want), std::string::npos) << err;
    const std::string repaired = path + ".repaired";
    written_.push_back(repaired);
    for (const std::string &args :
         {"info " + path, "stats " + path, "dump " + path, "verify " + path,
          "diff " + path + " " + path, "repair " + path + " " + repaired}) {
        EXPECT_EQ(runTool(RRLOG_BIN, args, &err), 1) << args << ": " << err;
        EXPECT_NE(err.find(want), std::string::npos) << args << ": " << err;
    }
}

TEST_F(Pipeline, FifoIsAnIoErrorAndNeverBlocks)
{
    // A FIFO with no writer: both tools refuse it at once as an I/O
    // failure (exit 3) instead of blocking in open(). The name lacks
    // the .rrlog suffix, so rrsim's file-or-kernel probe sees it too.
    const std::string fifo = tempPath("fifo") + ".pipe";
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
    written_.push_back(fifo);
    std::string err;
    EXPECT_EQ(runTool(RRLOG_BIN, "info " + fifo, &err), 3) << err;
    EXPECT_NE(err.find("not a regular file"), std::string::npos) << err;
    EXPECT_EQ(rrsim("replay " + fifo, &err), 3) << err;
    EXPECT_NE(err.find("not a regular file"), std::string::npos) << err;
}

TEST(Cancellation, RunawayBlockReplayEndsAtTheJobDeadline)
{
    // The runaway file, with a Summary that claims its 2^40-instruction
    // block (every CRC valid, every count consistent): core 0 runs on
    // past its interval into a spin the rest of the log would have
    // released, so only cancellation ends the replay, and it must land
    // inside the block — fanned out over the DAG of the file with
    // edges, and on the recorded-order walk of the one without.
    using Clock = svc::CancelToken::Clock;
    for (const bool deps : {true, false}) {
        SCOPED_TRACE(deps ? "dependency DAG" : "recorded order");
        const std::string path = tempPath(deps ? "runaway_deps" : "runaway");
        testlogs::writeRunawayLog(path, deps, true);

        svc::JobParams p = replayParams(path);
        p.jobs = 4;
        const Clock::time_point start = Clock::now();
        const svc::CancelToken token(start + std::chrono::seconds(2));
        EXPECT_THROW(svc::runJob(p, token), svc::JobCancelled);
        EXPECT_LT(Clock::now() - start, std::chrono::seconds(3));
        std::remove(path.c_str());
    }
}

TEST(CancelToken, FiresOnCancelOrOncePastItsDeadline)
{
    using Clock = svc::CancelToken::Clock;
    const Clock::time_point now = Clock::now();
    const svc::CancelToken never;
    const svc::CancelToken past(now - std::chrono::milliseconds(1));
    const svc::CancelToken far(now + std::chrono::hours(1));
    svc::CancelToken cancelled(now + std::chrono::hours(1));
    cancelled.cancel();

    const struct
    {
        const char *name;
        const svc::CancelToken &token;
        bool fired;
    } rows[] = {
        {"a default token never fires", never, false},
        {"a passed deadline fires", past, true},
        {"a far deadline has not fired", far, false},
        {"cancel() fires before a far deadline", cancelled, true},
    };
    for (const auto &row : rows) {
        SCOPED_TRACE(row.name);
        EXPECT_EQ(row.token.cancelled(), row.fired);
        if (row.fired) {
            EXPECT_THROW(row.token.check(), svc::JobCancelled);
        } else {
            EXPECT_NO_THROW(row.token.check());
        }
    }
}

} // namespace
