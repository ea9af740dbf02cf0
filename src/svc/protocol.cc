#include "svc/protocol.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cstdio>
#include <cstring>

namespace rr::svc
{

// --- Json value -------------------------------------------------------

const Json &
Json::get(const std::string &key) const
{
    static const Json null;
    if (kind_ != Kind::Object || !obj_)
        return null;
    auto it = obj_->find(key);
    return it == obj_->end() ? null : it->second;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (const char ch : s) {
        const unsigned char c = static_cast<unsigned char>(ch);
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out.push_back(ch);
            }
        }
    }
    out.push_back('"');
    return out;
}

// --- JSON parser ------------------------------------------------------

namespace
{

class Parser
{
  public:
    Parser(const std::string &text, std::size_t max_depth)
        : text_(text), maxDepth_(max_depth)
    {
    }

    std::optional<Json>
    parse(std::string &error)
    {
        std::optional<Json> v = value(0);
        if (!v) {
            error = error_;
            return std::nullopt;
        }
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing bytes after document");
            error = error_;
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    fail(const std::string &what)
    {
        if (error_.empty())
            error_ = what + " at byte " + std::to_string(pos_);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c != ' ' && c != '\t' && c != '\n' && c != '\r')
                break;
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::optional<Json>
    value(std::size_t depth)
    {
        if (depth > maxDepth_) {
            fail("nesting depth limit exceeded");
            return std::nullopt;
        }
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return std::nullopt;
        }
        const char c = text_[pos_];
        if (c == '{')
            return object(depth);
        if (c == '[')
            return array(depth);
        if (c == '"') {
            std::optional<std::string> s = string();
            if (!s)
                return std::nullopt;
            return Json(std::move(*s));
        }
        if (c == 't') {
            if (literal("true"))
                return Json(true);
            fail("bad literal");
            return std::nullopt;
        }
        if (c == 'f') {
            if (literal("false"))
                return Json(false);
            fail("bad literal");
            return std::nullopt;
        }
        if (c == 'n') {
            if (literal("null"))
                return Json();
            fail("bad literal");
            return std::nullopt;
        }
        return number();
    }

    std::optional<Json>
    number()
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        bool any_digit = false;
        if (pos_ < text_.size() && text_[pos_] == '0') {
            // Strict JSON: the integer part is 0 or [1-9][0-9]* — a
            // leading zero is not a number prefix.
            ++pos_;
            any_digit = true;
            if (pos_ < text_.size() &&
                std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                fail("bad number (leading zero)");
                return std::nullopt;
            }
        } else {
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                any_digit = true;
            }
        }
        bool is_double = false;
        if (consume('.')) {
            is_double = true;
            bool frac = false;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                frac = true;
            }
            if (!frac) {
                fail("bad number");
                return std::nullopt;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            is_double = true;
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            bool exp = false;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                exp = true;
            }
            if (!exp) {
                fail("bad number");
                return std::nullopt;
            }
        }
        if (!any_digit) {
            fail("bad number");
            return std::nullopt;
        }
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        if (!is_double) {
            std::int64_t iv = 0;
            const auto [p, ec] = std::from_chars(first, last, iv);
            if (ec == std::errc() && p == last)
                return Json(iv);
            // fall through: out of int64 range -> double
        }
        double dv = 0.0;
        const auto [p, ec] = std::from_chars(first, last, dv);
        if (ec != std::errc() || p != last) {
            fail("bad number");
            return std::nullopt;
        }
        return Json(dv);
    }

    /** Append @p cp as UTF-8. */
    static void
    appendUtf8(std::string &out, std::uint32_t cp)
    {
        if (cp < 0x80) {
            out.push_back(static_cast<char>(cp));
        } else if (cp < 0x800) {
            out.push_back(static_cast<char>(0xC0 | (cp >> 6)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else if (cp < 0x10000) {
            out.push_back(static_cast<char>(0xE0 | (cp >> 12)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        } else {
            out.push_back(static_cast<char>(0xF0 | (cp >> 18)));
            out.push_back(
                static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
            out.push_back(static_cast<char>(0x80 | (cp & 0x3F)));
        }
    }

    std::optional<std::uint32_t>
    hex4()
    {
        if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
        }
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = text_[pos_++];
            v <<= 4;
            if (c >= '0' && c <= '9')
                v |= static_cast<std::uint32_t>(c - '0');
            else if (c >= 'a' && c <= 'f')
                v |= static_cast<std::uint32_t>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                v |= static_cast<std::uint32_t>(c - 'A' + 10);
            else {
                fail("bad \\u escape");
                return std::nullopt;
            }
        }
        return v;
    }

    std::optional<std::string>
    string()
    {
        if (!consume('"')) {
            fail("expected string");
            return std::nullopt;
        }
        std::string out;
        for (;;) {
            if (pos_ >= text_.size()) {
                fail("unterminated string");
                return std::nullopt;
            }
            const unsigned char c =
                static_cast<unsigned char>(text_[pos_]);
            if (c == '"') {
                ++pos_;
                return out;
            }
            if (c < 0x20) {
                fail("raw control character in string");
                return std::nullopt;
            }
            if (c != '\\') {
                out.push_back(static_cast<char>(c));
                ++pos_;
                continue;
            }
            ++pos_; // backslash
            if (pos_ >= text_.size()) {
                fail("truncated escape");
                return std::nullopt;
            }
            const char e = text_[pos_++];
            switch (e) {
              case '"':
                out.push_back('"');
                break;
              case '\\':
                out.push_back('\\');
                break;
              case '/':
                out.push_back('/');
                break;
              case 'b':
                out.push_back('\b');
                break;
              case 'f':
                out.push_back('\f');
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'r':
                out.push_back('\r');
                break;
              case 't':
                out.push_back('\t');
                break;
              case 'u': {
                std::optional<std::uint32_t> hi = hex4();
                if (!hi)
                    return std::nullopt;
                std::uint32_t cp = *hi;
                if (cp >= 0xD800 && cp <= 0xDBFF) {
                    // High surrogate: require a following \uDC00-DFFF.
                    if (!literal("\\u")) {
                        fail("lone high surrogate");
                        return std::nullopt;
                    }
                    std::optional<std::uint32_t> lo = hex4();
                    if (!lo)
                        return std::nullopt;
                    if (*lo < 0xDC00 || *lo > 0xDFFF) {
                        fail("bad low surrogate");
                        return std::nullopt;
                    }
                    cp = 0x10000 + ((cp - 0xD800) << 10) +
                         (*lo - 0xDC00);
                } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
                    fail("lone low surrogate");
                    return std::nullopt;
                }
                appendUtf8(out, cp);
                break;
              }
              default:
                fail("bad escape");
                return std::nullopt;
            }
        }
    }

    std::optional<Json>
    array(std::size_t depth)
    {
        consume('[');
        JsonArray out;
        skipWs();
        if (consume(']'))
            return Json(std::move(out));
        for (;;) {
            std::optional<Json> v = value(depth + 1);
            if (!v)
                return std::nullopt;
            out.push_back(std::move(*v));
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                return Json(std::move(out));
            fail("expected ',' or ']'");
            return std::nullopt;
        }
    }

    std::optional<Json>
    object(std::size_t depth)
    {
        consume('{');
        JsonObject out;
        skipWs();
        if (consume('}'))
            return Json(std::move(out));
        for (;;) {
            skipWs();
            std::optional<std::string> key = string();
            if (!key)
                return std::nullopt;
            skipWs();
            if (!consume(':')) {
                fail("expected ':'");
                return std::nullopt;
            }
            std::optional<Json> v = value(depth + 1);
            if (!v)
                return std::nullopt;
            out[std::move(*key)] = std::move(*v);
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                return Json(std::move(out));
            fail("expected ',' or '}'");
            return std::nullopt;
        }
    }

    const std::string &text_;
    const std::size_t maxDepth_;
    std::size_t pos_ = 0;
    std::string error_;
};

} // namespace

std::optional<Json>
parseJson(const std::string &text, std::string &error,
          std::size_t max_depth)
{
    return Parser(text, max_depth).parse(error);
}

// --- Requests ---------------------------------------------------------

const char *
toString(ErrorCode code)
{
    switch (code) {
      case ErrorCode::BadRequest:
        return "BAD_REQUEST";
      case ErrorCode::QueueFull:
        return "QUEUE_FULL";
      case ErrorCode::QuotaExceeded:
        return "QUOTA_EXCEEDED";
      case ErrorCode::ShuttingDown:
        return "SHUTTING_DOWN";
      case ErrorCode::NotFound:
        return "NOT_FOUND";
      case ErrorCode::Internal:
        return "INTERNAL";
    }
    return "INTERNAL";
}

const char *
toString(JobKind kind)
{
    switch (kind) {
      case JobKind::Record:
        return "record";
      case JobKind::Replay:
        return "replay";
      case JobKind::Verify:
        return "verify";
      case JobKind::Stats:
        return "stats";
    }
    return "?";
}

namespace
{

/** A non-negative integer field; rejects negatives and non-numbers. */
bool
uintField(const Json &obj, const char *key, std::uint64_t &out,
          std::string &error)
{
    const Json &v = obj.get(key);
    if (v.isNull())
        return true;
    if (v.kind() != Json::Kind::Int || v.asInt() < 0) {
        error = std::string("field '") + key +
                "' must be a non-negative integer";
        return false;
    }
    out = static_cast<std::uint64_t>(v.asInt());
    return true;
}

bool
parseJobParams(const Json &o, JobKind kind, JobParams &p,
               std::string &error)
{
    p.kind = kind;
    p.kernel = o.get("kernel").asString();
    p.file = o.get("file").asString();
    p.outFile = o.get("out").asString();

    std::uint64_t cores = p.cores, jobs = p.jobs;
    if (!uintField(o, "cores", cores, error) ||
        !uintField(o, "scale", p.scale, error) ||
        !uintField(o, "interval", p.intervalCap, error) ||
        !uintField(o, "jobs", jobs, error))
        return false;
    // Range-check the full 64-bit values BEFORE narrowing: a value
    // like 2^32+1 must be rejected, not silently wrapped into range.
    if (cores == 0 || cores > kMaxCores) {
        error = "field 'cores' must be in [1," + std::to_string(kMaxCores) +
                "]";
        return false;
    }
    if (jobs > kMaxJobs) {
        error = "field 'jobs' must be in [0," + std::to_string(kMaxJobs) +
                "]";
        return false;
    }
    p.cores = static_cast<std::uint32_t>(cores);
    p.jobs = static_cast<std::uint32_t>(jobs);
    p.deps = o.get("deps").asBool(p.deps);
    p.allowPartial = o.get("allowPartial").asBool(false);

    const Json &mode = o.get("mode");
    if (!mode.isNull()) {
        if (mode.asString() == "base")
            p.mode = sim::RecorderMode::Base;
        else if (mode.asString() == "opt")
            p.mode = sim::RecorderMode::Opt;
        else {
            error = "field 'mode' must be \"base\" or \"opt\"";
            return false;
        }
    }
    const Json &coherence = o.get("coherence");
    if (!coherence.isNull()) {
        if (!sim::parseCoherenceKind(coherence.asString(),
                                     p.coherence)) {
            error = "field 'coherence' must be \"snoopy\" or "
                    "\"directory\"";
            return false;
        }
        p.coherenceSet = true;
    }

    switch (kind) {
      case JobKind::Record:
        if (p.kernel.empty()) {
            error = "record needs a 'kernel'";
            return false;
        }
        break;
      case JobKind::Replay:
        if (p.file.empty() && p.kernel.empty()) {
            error = "replay needs a 'file' (or a 'kernel' to "
                    "record-then-replay in memory)";
            return false;
        }
        break;
      case JobKind::Verify:
      case JobKind::Stats:
        if (p.file.empty()) {
            error = std::string(toString(kind)) + " needs a 'file'";
            return false;
        }
        break;
    }
    return true;
}

} // namespace

std::optional<Request>
parseRequest(const std::string &line, std::string &error)
{
    std::optional<Json> doc = parseJson(line, error);
    if (!doc)
        return std::nullopt;
    if (!doc->isObject()) {
        error = "request must be a JSON object";
        return std::nullopt;
    }

    Request r;
    const Json &tenant = doc->get("tenant");
    if (!tenant.isNull()) {
        r.tenant = tenant.asString();
        if (r.tenant.empty() || r.tenant.size() > 64) {
            error = "field 'tenant' must be a 1..64-char string";
            return std::nullopt;
        }
    }
    std::uint64_t weight = 1;
    if (!uintField(*doc, "weight", weight, error))
        return std::nullopt;
    r.weight = std::min<std::uint64_t>(std::max<std::uint64_t>(weight, 1),
                                       100);
    r.tag = doc->get("tag").asString();
    if (r.tag.size() > 128) {
        error = "field 'tag' too long (max 128)";
        return std::nullopt;
    }
    const Json &timeout = doc->get("timeout");
    if (!timeout.isNull()) {
        r.timeoutSec = timeout.asDouble(-1.0);
        if (!(r.timeoutSec >= 0.0) || r.timeoutSec > 86400.0) {
            error = "field 'timeout' must be seconds in [0,86400]";
            return std::nullopt;
        }
    }

    const std::string op = doc->get("op").asString();
    if (op == "record" || op == "replay" || op == "verify" ||
        op == "stats") {
        r.op = Request::Op::Submit;
        const JobKind kind = op == "record"  ? JobKind::Record
                             : op == "replay" ? JobKind::Replay
                             : op == "verify" ? JobKind::Verify
                                              : JobKind::Stats;
        if (!parseJobParams(*doc, kind, r.params, error))
            return std::nullopt;
    } else if (op == "cancel") {
        r.op = Request::Op::Cancel;
        if (!uintField(*doc, "job", r.cancelJob, error))
            return std::nullopt;
        if (r.cancelJob == 0) {
            error = "cancel needs a 'job' id";
            return std::nullopt;
        }
    } else if (op == "status") {
        r.op = Request::Op::Status;
    } else if (op == "ping") {
        r.op = Request::Op::Ping;
    } else if (op == "shutdown") {
        r.op = Request::Op::Shutdown;
        r.drain = doc->get("drain").asBool(true);
    } else {
        error = op.empty()
                    ? "missing 'op'"
                    : "unknown op '" + op +
                          "' (record|replay|verify|stats|cancel|"
                          "status|ping|shutdown)";
        return std::nullopt;
    }
    return r;
}

// --- Events -----------------------------------------------------------

namespace
{

void
appendTag(std::string &out, const std::string &tag)
{
    if (!tag.empty()) {
        out += ",\"tag\":";
        out += jsonQuote(tag);
    }
}

} // namespace

std::string
eventAccepted(std::uint64_t job, const std::string &tag,
              std::uint64_t queue_depth)
{
    std::string out = "{\"event\":\"accepted\",\"job\":" +
                      std::to_string(job) +
                      ",\"queueDepth\":" + std::to_string(queue_depth);
    appendTag(out, tag);
    out += "}";
    return out;
}

std::string
eventRejected(ErrorCode code, const std::string &detail,
              const std::string &tag)
{
    std::string out = std::string("{\"event\":\"rejected\",\"error\":\"") +
                      toString(code) + "\"";
    if (!detail.empty()) {
        out += ",\"detail\":";
        out += jsonQuote(detail);
    }
    appendTag(out, tag);
    out += "}";
    return out;
}

std::string
eventRunning(std::uint64_t job, const std::string &tag)
{
    std::string out =
        "{\"event\":\"running\",\"job\":" + std::to_string(job);
    appendTag(out, tag);
    out += "}";
    return out;
}

std::string
eventProgress(std::uint64_t job, const std::string &tag,
              const std::string &stage)
{
    std::string out =
        "{\"event\":\"progress\",\"job\":" + std::to_string(job) +
        ",\"stage\":" + jsonQuote(stage);
    appendTag(out, tag);
    out += "}";
    return out;
}

std::string
eventCompleted(std::uint64_t job, const std::string &tag,
               const std::string &result, double wall_seconds)
{
    char wall[32];
    std::snprintf(wall, sizeof(wall), "%.6f", wall_seconds);
    std::string out =
        "{\"event\":\"completed\",\"job\":" + std::to_string(job) +
        ",\"wallSeconds\":" + wall +
        ",\"result\":" + (result.empty() ? "{}" : result);
    appendTag(out, tag);
    out += "}";
    return out;
}

std::string
eventFailed(std::uint64_t job, const std::string &tag,
            const std::string &error_class, const std::string &message)
{
    std::string out =
        "{\"event\":\"failed\",\"job\":" + std::to_string(job) +
        ",\"error\":" + jsonQuote(error_class) +
        ",\"message\":" + jsonQuote(message);
    appendTag(out, tag);
    out += "}";
    return out;
}

std::string
eventCancelled(std::uint64_t job, const std::string &tag,
               const std::string &reason)
{
    std::string out =
        "{\"event\":\"cancelled\",\"job\":" + std::to_string(job) +
        ",\"reason\":" + jsonQuote(reason);
    appendTag(out, tag);
    out += "}";
    return out;
}

std::string
eventPong()
{
    return "{\"event\":\"pong\"}";
}

std::string
eventStatus(const std::string &body)
{
    return "{\"event\":\"status\",\"server\":" +
           (body.empty() ? "{}" : body) + "}";
}

std::string
eventShutdown(bool draining)
{
    return std::string("{\"event\":\"shutdown\",\"draining\":") +
           (draining ? "true" : "false") + "}";
}

} // namespace rr::svc
