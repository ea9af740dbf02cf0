#include <gtest/gtest.h>

#include <random>
#include <string>
#include <vector>

#include "svc/protocol.hh"

namespace
{

using namespace rr;
using svc::Json;
using svc::parseJson;
using svc::parseRequest;

Json
mustParse(const std::string &text)
{
    std::string error;
    auto v = parseJson(text, error);
    EXPECT_TRUE(v.has_value()) << text << " -> " << error;
    return v ? *v : Json();
}

TEST(ProtocolJson, ScalarRoundTrips)
{
    EXPECT_EQ(mustParse("null").kind(), Json::Kind::Null);
    EXPECT_TRUE(mustParse("true").asBool());
    EXPECT_FALSE(mustParse("false").asBool(true));
    EXPECT_EQ(mustParse("42").asInt(), 42);
    EXPECT_EQ(mustParse("-7").asInt(), -7);
    EXPECT_DOUBLE_EQ(mustParse("2.5").asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(mustParse("1e3").asDouble(), 1000.0);
    EXPECT_EQ(mustParse("\"hi\"").asString(), "hi");
}

TEST(ProtocolJson, StringEscapes)
{
    EXPECT_EQ(mustParse(R"("a\"b\\c\/d\n\t")").asString(),
              "a\"b\\c/d\n\t");
    // \uXXXX including a surrogate pair -> UTF-8.
    EXPECT_EQ(mustParse(R"("\u0041")").asString(), "A");
    EXPECT_EQ(mustParse(R"("\u00e9")").asString(), "\xc3\xa9");
    EXPECT_EQ(mustParse(R"("\ud83d\ude00")").asString(),
              "\xf0\x9f\x98\x80");
}

TEST(ProtocolJson, ContainersAndLookup)
{
    const Json v = mustParse(
        R"({"a":[1,2,3],"b":{"c":"x"},"n":null,"f":1.5})");
    EXPECT_TRUE(v.isObject());
    EXPECT_EQ(v.get("a").asArray().size(), 3u);
    EXPECT_EQ(v.get("a").asArray()[2].asInt(), 3);
    EXPECT_EQ(v.get("b").get("c").asString(), "x");
    EXPECT_TRUE(v.get("n").isNull());
    EXPECT_TRUE(v.get("missing").isNull());
    EXPECT_DOUBLE_EQ(v.get("f").asDouble(), 1.5);
}

TEST(ProtocolJson, RejectsMalformed)
{
    const char *bad[] = {
        "",       "{",          "}",          "[1,",
        "{\"a\"", "{\"a\":}",   "tru",        "nul",
        "01",     "1.",         "\"\\q\"",    "\"unterminated",
        "[1 2]",  "{\"a\" 1}",  "{,}",        "\xff\xfe",
        "1 2",    "\"\\ud800\"" /* lone surrogate */,
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_FALSE(parseJson(text, error).has_value()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(ProtocolJson, DepthLimit)
{
    std::string deep;
    for (int i = 0; i < 100; ++i)
        deep += "[";
    std::string error;
    EXPECT_FALSE(parseJson(deep, error).has_value());
    EXPECT_NE(error.find("depth"), std::string::npos);
    // 16 levels under a 32 limit is fine.
    std::string ok = "1";
    for (int i = 0; i < 16; ++i)
        ok = "[" + ok + "]";
    EXPECT_TRUE(parseJson(ok, error).has_value()) << error;
}

TEST(ProtocolJson, QuoteEscapesControlBytes)
{
    const std::string quoted = svc::jsonQuote("a\"b\\c\x01\n");
    EXPECT_EQ(mustParse(quoted).asString(), "a\"b\\c\x01\n");
}

// --- requests ---------------------------------------------------------

TEST(ProtocolRequest, SubmitRecordRoundTrip)
{
    std::string error;
    auto r = parseRequest(
        R"({"op":"record","kernel":"fft","cores":4,"scale":2,)"
        R"("mode":"base","interval":1024,"deps":true,"out":"x.rrlog",)"
        R"("tenant":"alice","weight":7,"tag":"t1","timeout":2.5})",
        error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->op, svc::Request::Op::Submit);
    EXPECT_EQ(r->params.kind, svc::JobKind::Record);
    EXPECT_EQ(r->params.kernel, "fft");
    EXPECT_EQ(r->params.cores, 4u);
    EXPECT_EQ(r->params.scale, 2u);
    EXPECT_EQ(r->params.mode, rr::sim::RecorderMode::Base);
    EXPECT_EQ(r->params.intervalCap, 1024u);
    EXPECT_TRUE(r->params.deps);
    EXPECT_EQ(r->params.outFile, "x.rrlog");
    EXPECT_EQ(r->tenant, "alice");
    EXPECT_EQ(r->weight, 7u);
    EXPECT_EQ(r->tag, "t1");
    EXPECT_DOUBLE_EQ(r->timeoutSec, 2.5);

    // A field the protocol does not define is ignored, whatever its
    // value.
    r = parseRequest(R"({"op":"verify","file":"a.rrlog","ingest":"weird"})",
                     error);
    ASSERT_TRUE(r.has_value()) << error;
    EXPECT_EQ(r->params.file, "a.rrlog");
}

TEST(ProtocolRequest, ControlOps)
{
    std::string error;
    EXPECT_EQ(parseRequest(R"({"op":"ping"})", error)->op,
              svc::Request::Op::Ping);
    EXPECT_EQ(parseRequest(R"({"op":"status"})", error)->op,
              svc::Request::Op::Status);
    auto c = parseRequest(R"({"op":"cancel","job":9})", error);
    ASSERT_TRUE(c.has_value());
    EXPECT_EQ(c->op, svc::Request::Op::Cancel);
    EXPECT_EQ(c->cancelJob, 9u);
    auto s =
        parseRequest(R"({"op":"shutdown","drain":false})", error);
    ASSERT_TRUE(s.has_value());
    EXPECT_FALSE(s->drain);
    EXPECT_TRUE(
        parseRequest(R"({"op":"shutdown"})", error)->drain);
}

TEST(ProtocolRequest, SemanticRejections)
{
    const char *bad[] = {
        R"({"op":"record"})",                      // no kernel
        R"({"op":"replay"})",                      // no file/kernel
        R"({"op":"verify"})",                      // no file
        R"({"op":"stats"})",                       // no file
        R"({"op":"cancel"})",                      // no job id
        R"({"op":"record","kernel":"fft","cores":0})",
        R"({"op":"record","kernel":"fft","cores":999})",
        R"({"op":"record","kernel":"fft","cores":-1})",
        // 2^32+1 and 2^32: must not wrap into range via uint32
        // truncation (4294967297 % 2^32 = 1, 4294967296 % 2^32 = 0).
        R"({"op":"record","kernel":"fft","cores":4294967297})",
        R"({"op":"replay","file":"a.rrlog","jobs":4294967296})",
        R"({"op":"replay","file":"a.rrlog","jobs":999})",
        R"({"op":"record","kernel":"fft","mode":"weird"})",
        R"({"op":"nope"})",                        // unknown op
        R"({})",                                   // missing op
        R"({"op":"ping","tenant":""})",            // empty tenant
        R"({"op":"ping","timeout":-1})",           // bad timeout
        R"({"op":"ping","timeout":1e9})",          // bad timeout
        R"([1,2,3])",                              // not an object
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_FALSE(parseRequest(text, error).has_value()) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(ProtocolRequest, WeightClamped)
{
    std::string error;
    EXPECT_EQ(parseRequest(R"({"op":"ping","weight":0})", error)
                  ->weight,
              1u);
    EXPECT_EQ(parseRequest(R"({"op":"ping","weight":5000})", error)
                  ->weight,
              100u);
}

// --- event builders ---------------------------------------------------

TEST(ProtocolEvents, BuildersEmitParseableJson)
{
    const std::string events[] = {
        svc::eventAccepted(7, "tag with \"quotes\"", 3),
        svc::eventRejected(svc::ErrorCode::QueueFull, "full", "t"),
        svc::eventRunning(7, ""),
        svc::eventProgress(7, "t", "execute"),
        svc::eventCompleted(7, "t", "{\"x\":1}", 0.25),
        svc::eventFailed(7, "t", "MISMATCH", "boom\nnewline"),
        svc::eventCancelled(7, "t", "timeout"),
        svc::eventPong(),
        svc::eventStatus("{\"depth\":0}"),
        svc::eventShutdown(true),
    };
    for (const std::string &e : events) {
        const Json v = mustParse(e);
        EXPECT_TRUE(v.isObject()) << e;
        EXPECT_FALSE(v.get("event").asString().empty()) << e;
    }
    const Json done = mustParse(events[4]);
    EXPECT_EQ(done.get("result").get("x").asInt(), 1);
    EXPECT_EQ(mustParse(events[1]).get("error").asString(),
              "QUEUE_FULL");
    EXPECT_EQ(mustParse(events[6]).get("reason").asString(),
              "timeout");
}

// --- fuzz: the daemon must never crash on a malformed line ------------

TEST(ProtocolFuzz, RandomBytesNeverCrashTheParser)
{
    std::mt19937 rng(0xC0FFEEu);
    const char alphabet[] =
        "{}[]\",:0123456789.eE+-truefalsnul \\/\t\xff\x01\x80";
    for (int i = 0; i < 20000; ++i) {
        std::uniform_int_distribution<int> len(0, 64);
        std::uniform_int_distribution<int> pick(
            0, sizeof(alphabet) - 2);
        std::string text;
        const int n = len(rng);
        for (int j = 0; j < n; ++j)
            text += alphabet[static_cast<std::size_t>(pick(rng))];
        std::string error;
        auto v = parseJson(text, error);
        if (!v) {
            EXPECT_FALSE(error.empty());
        }
        error.clear();
        parseRequest(text, error); // must not crash either
    }
}

TEST(ProtocolFuzz, MutatedValidRequestsNeverCrash)
{
    const std::string seedReq =
        R"({"op":"replay","file":"a.rrlog","cores":8,"jobs":2,)"
        R"("tenant":"bob","weight":3,"tag":"x","timeout":1.5,)"
        R"("coherence":"snoopy","allowPartial":true})";
    std::mt19937 rng(42);
    for (int i = 0; i < 20000; ++i) {
        std::string text = seedReq;
        // Truncate, flip, or insert — one mutation per iteration.
        std::uniform_int_distribution<int> kind(0, 2);
        std::uniform_int_distribution<std::size_t> pos(
            0, text.size() - 1);
        std::uniform_int_distribution<int> byte(0, 255);
        switch (kind(rng)) {
          case 0:
            text.resize(pos(rng));
            break;
          case 1:
            text[pos(rng)] = static_cast<char>(byte(rng));
            break;
          default:
            text.insert(pos(rng), 1, static_cast<char>(byte(rng)));
            break;
        }
        std::string error;
        parseRequest(text, error); // no crash, no hang
    }
}

} // namespace
