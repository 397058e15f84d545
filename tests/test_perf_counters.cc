/**
 * @file
 * Tests for the perf_event counter-group abstraction: the
 * deterministic unavailable-fallback path, multiplexing-corrected
 * delta scaling, derived metrics, and the JSON round trip.  The
 * tests never require a host with perf access — the only test
 * that opens real counters accepts either outcome, so the suite
 * passes identically on locked-down containers and bare metal.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "obs/json.hh"
#include "obs/perf_counters.hh"

namespace {

using namespace uatm::obs;

TEST(PerfEventNames, RoundTripAllEvents)
{
    for (std::size_t i = 0; i < kPerfEventCount; ++i) {
        const auto event = static_cast<PerfEvent>(i);
        PerfEvent parsed;
        ASSERT_TRUE(
            perfEventFromName(perfEventName(event), parsed))
            << perfEventName(event);
        EXPECT_EQ(parsed, event);
    }
}

TEST(PerfEventNames, UnknownNameRejected)
{
    PerfEvent out;
    EXPECT_FALSE(perfEventFromName("bogus_counter", out));
    EXPECT_FALSE(perfEventFromName("", out));
    // Case-sensitive by design: the canonical names are what the
    // JSON schema stores.
    EXPECT_FALSE(perfEventFromName("Cycles", out));
}

TEST(PerfCounterGroup, ForceUnavailableIsDeterministic)
{
    PerfCounterOptions options;
    options.forceUnavailable = true;
    PerfCounterGroup group(options);

    EXPECT_FALSE(group.available());
    EXPECT_FALSE(group.unavailableReason().empty());
    EXPECT_EQ(group.mask(), 0u);

    // Every operation is a safe no-op.
    group.start();
    group.stop();
    const PerfReading reading = group.read();
    EXPECT_FALSE(reading.available);
    EXPECT_EQ(reading.mask, 0u);
}

TEST(PerfCounterGroup, OpenEitherWorksOrExplainsItself)
{
    // Environment-agnostic: on a host with perf access at least
    // one event opens; on a locked-down container the group must
    // degrade to unavailable with a reason, never crash.
    PerfCounterGroup group;
    if (group.available()) {
        EXPECT_NE(group.mask(), 0u);
        group.start();
        const PerfReading a = group.read();
        const PerfReading b = group.read();
        EXPECT_TRUE(a.available);
        EXPECT_TRUE(b.available);
        for (std::size_t i = 0; i < kPerfEventCount; ++i) {
            const auto event = static_cast<PerfEvent>(i);
            if (!a.has(event) || !b.has(event))
                continue;
            // Totals are cumulative since start().
            EXPECT_GE(b.raw[i], a.raw[i]);
            EXPECT_GE(b.enabledNs[i], a.enabledNs[i]);
        }
    } else {
        EXPECT_FALSE(group.unavailableReason().empty());
    }
}

TEST(PerfCounterGroup, ThreadGroupIsStable)
{
    PerfCounterGroup &a = threadPerfCounters();
    PerfCounterGroup &b = threadPerfCounters();
    EXPECT_EQ(&a, &b);
}

PerfReading
makeReading(std::initializer_list<
            std::tuple<PerfEvent, std::uint64_t, std::uint64_t,
                       std::uint64_t>>
                entries)
{
    PerfReading reading;
    for (const auto &[event, raw, enabled, running] : entries) {
        const auto i = static_cast<std::size_t>(event);
        reading.raw[i] = raw;
        reading.enabledNs[i] = enabled;
        reading.runningNs[i] = running;
        reading.mask |= 1u << i;
    }
    reading.available = reading.mask != 0;
    return reading;
}

TEST(ScaleDelta, UnscaledWhenAlwaysRunning)
{
    const PerfReading begin = makeReading(
        {{PerfEvent::Cycles, 1000, 500, 500},
         {PerfEvent::Instructions, 2000, 500, 500}});
    const PerfReading end = makeReading(
        {{PerfEvent::Cycles, 5000, 1500, 1500},
         {PerfEvent::Instructions, 10000, 1500, 1500}});

    const PerfCounterValues delta = scaleDelta(begin, end);
    ASSERT_TRUE(delta.available);
    EXPECT_DOUBLE_EQ(delta.get(PerfEvent::Cycles), 4000.0);
    EXPECT_DOUBLE_EQ(delta.get(PerfEvent::Instructions), 8000.0);
    EXPECT_DOUBLE_EQ(delta.ipc(), 2.0);
    EXPECT_DOUBLE_EQ(delta.multiplexScale(), 1.0);
}

TEST(ScaleDelta, MultiplexedGroupExtrapolates)
{
    // The group was on hardware half the enabled time: counts
    // must be scaled by enabled/running = 2.
    const PerfReading begin =
        makeReading({{PerfEvent::Cycles, 0, 0, 0}});
    const PerfReading end =
        makeReading({{PerfEvent::Cycles, 3000, 1000, 500}});

    const PerfCounterValues delta = scaleDelta(begin, end);
    ASSERT_TRUE(delta.available);
    EXPECT_DOUBLE_EQ(delta.get(PerfEvent::Cycles), 6000.0);
    EXPECT_DOUBLE_EQ(delta.multiplexScale(), 2.0);
}

TEST(ScaleDelta, NeverScheduledEventDropped)
{
    // Enabled time advanced but running time did not: the PMU
    // never scheduled the group, so there is nothing to
    // extrapolate from — the event must vanish, not read 0.
    const PerfReading begin = makeReading(
        {{PerfEvent::Cycles, 100, 1000, 1000},
         {PerfEvent::LlcMisses, 50, 1000, 400}});
    const PerfReading end = makeReading(
        {{PerfEvent::Cycles, 200, 2000, 2000},
         {PerfEvent::LlcMisses, 50, 2000, 400}});

    const PerfCounterValues delta = scaleDelta(begin, end);
    ASSERT_TRUE(delta.available);
    EXPECT_TRUE(delta.has(PerfEvent::Cycles));
    EXPECT_FALSE(delta.has(PerfEvent::LlcMisses));
    EXPECT_DOUBLE_EQ(delta.get(PerfEvent::LlcMisses), 0.0);
}

TEST(ScaleDelta, UnavailableInputsYieldUnavailable)
{
    const PerfReading empty;
    const PerfReading real =
        makeReading({{PerfEvent::Cycles, 100, 100, 100}});
    EXPECT_FALSE(scaleDelta(empty, real).available);
    EXPECT_FALSE(scaleDelta(real, empty).available);
    EXPECT_FALSE(scaleDelta(empty, empty).available);
}

TEST(ScaleDelta, EventPresentOnOneSideOnlyDropped)
{
    const PerfReading begin =
        makeReading({{PerfEvent::Cycles, 100, 100, 100}});
    const PerfReading end = makeReading(
        {{PerfEvent::Cycles, 200, 200, 200},
         {PerfEvent::BranchMisses, 10, 200, 200}});
    const PerfCounterValues delta = scaleDelta(begin, end);
    EXPECT_TRUE(delta.has(PerfEvent::Cycles));
    EXPECT_FALSE(delta.has(PerfEvent::BranchMisses));
}

TEST(PerfCounterValues, DerivedMetrics)
{
    PerfCounterValues v;
    v.available = true;
    auto set = [&](PerfEvent event, double value) {
        const auto i = static_cast<std::size_t>(event);
        v.value[i] = value;
        v.mask |= 1u << i;
    };
    set(PerfEvent::Cycles, 1000.0);
    set(PerfEvent::Instructions, 1500.0);
    set(PerfEvent::CacheReferences, 200.0);
    set(PerfEvent::CacheMisses, 30.0);

    EXPECT_DOUBLE_EQ(v.ipc(), 1.5);
    EXPECT_DOUBLE_EQ(v.cacheMissRate(), 0.15);
    EXPECT_DOUBLE_EQ(v.missesPerKiloInstruction(),
                     30.0 * 1000.0 / 1500.0);
}

TEST(PerfCounterValues, DerivedMetricsZeroWhenAbsent)
{
    PerfCounterValues v;
    v.available = true;
    const auto i =
        static_cast<std::size_t>(PerfEvent::Instructions);
    v.value[i] = 1000.0;
    v.mask |= 1u << i;

    // No cycles -> no IPC; no cache events -> no rates.
    EXPECT_DOUBLE_EQ(v.ipc(), 0.0);
    EXPECT_DOUBLE_EQ(v.cacheMissRate(), 0.0);
    EXPECT_DOUBLE_EQ(v.missesPerKiloInstruction(), 0.0);
    EXPECT_DOUBLE_EQ(v.get(PerfEvent::Cycles), 0.0);
}

TEST(PerfCounterValuesJson, RoundTrip)
{
    PerfCounterValues v;
    v.available = true;
    v.timeEnabledNs = 2000.0;
    v.timeRunningNs = 1000.0;
    auto set = [&](PerfEvent event, double value) {
        const auto i = static_cast<std::size_t>(event);
        v.value[i] = value;
        v.mask |= 1u << i;
    };
    set(PerfEvent::Cycles, 12345.0);
    set(PerfEvent::ContextSwitches, 7.0);

    JsonWriter w;
    v.writeJson(w);
    const JsonParseResult parsed = parseJson(w.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;

    const auto read =
        PerfCounterValues::fromJson(parsed.value, JsonPath("counters"));
    ASSERT_TRUE(read.ok()) << read.status().toString();
    const PerfCounterValues &back = read.value();
    ASSERT_TRUE(back.available);
    EXPECT_EQ(back.mask, v.mask);
    EXPECT_DOUBLE_EQ(back.get(PerfEvent::Cycles), 12345.0);
    EXPECT_DOUBLE_EQ(back.get(PerfEvent::ContextSwitches), 7.0);
    EXPECT_DOUBLE_EQ(back.timeEnabledNs, 2000.0);
    EXPECT_DOUBLE_EQ(back.timeRunningNs, 1000.0);
    EXPECT_DOUBLE_EQ(back.multiplexScale(), 2.0);
}

TEST(PerfCounterValuesJson, UnavailableRoundTrip)
{
    const PerfCounterValues v;
    JsonWriter w;
    v.writeJson(w);
    const JsonParseResult parsed = parseJson(w.str());
    ASSERT_TRUE(parsed.ok) << parsed.error;

    const auto back =
        PerfCounterValues::fromJson(parsed.value, JsonPath("counters"));
    ASSERT_TRUE(back.ok()) << back.status().toString();
    EXPECT_FALSE(back.value().available);
    EXPECT_EQ(back.value().mask, 0u);

    // A missing "available" reads as false too.
    for (const char *text :
         {"{\"available\": false}", "{\"values\": {\"cycles\": 1}}"}) {
        const JsonParseResult doc = parseJson(text);
        ASSERT_TRUE(doc.ok) << text;
        const auto unavailable =
            PerfCounterValues::fromJson(doc.value, JsonPath("counters"));
        ASSERT_TRUE(unavailable.ok()) << text;
        EXPECT_FALSE(unavailable.value().available) << text;
    }
}

TEST(PerfCounterValuesJson, MalformedInputsAreParseErrors)
{
    // Each used to read as the unavailable value, or as a value
    // with the bad event left out.
    struct Case
    {
        const char *json;
        const char *message;
    };
    const Case cases[] = {
        {"[]", "counters must be an object (got an array)"},
        {"42", "counters must be an object (got 42)"},
        {"{\"available\": \"yes\"}",
         "counters: available must be a bool (got \"yes\")"},
        {"{\"available\": true, \"values\": {\"cycles\": \"many\"}}",
         "counters: values.cycles must be a number (got \"many\")"},
        {"{\"available\": true, \"time_enabled_ns\": []}",
         "counters: time_enabled_ns must be a number (got an array)"},
    };
    for (const Case &c : cases) {
        const JsonParseResult parsed = parseJson(c.json);
        ASSERT_TRUE(parsed.ok) << c.json;
        const auto read =
            PerfCounterValues::fromJson(parsed.value, JsonPath("counters"));
        ASSERT_FALSE(read.ok()) << c.json;
        EXPECT_EQ(read.status().code(), uatm::ErrorCode::ParseError)
            << c.json;
        EXPECT_EQ(read.status().message(), c.message) << c.json;
    }
}

TEST(PerfCounterValuesJson, UnknownValueNamesIgnored)
{
    const JsonParseResult parsed = parseJson(
        "{\"available\": true, \"values\": "
        "{\"cycles\": 5, \"quantum_flux\": 9}}");
    ASSERT_TRUE(parsed.ok) << parsed.error;
    const auto read =
        PerfCounterValues::fromJson(parsed.value, JsonPath("counters"));
    ASSERT_TRUE(read.ok()) << read.status().toString();
    const PerfCounterValues &back = read.value();
    ASSERT_TRUE(back.available);
    EXPECT_TRUE(back.has(PerfEvent::Cycles));
    EXPECT_DOUBLE_EQ(back.get(PerfEvent::Cycles), 5.0);
    EXPECT_EQ(back.mask,
              1u << static_cast<unsigned>(PerfEvent::Cycles));
}

TEST(PerfArmed, FollowsEnvironment)
{
    const char *saved = std::getenv("UATM_PERF");
    const std::string restore = saved ? saved : "";

    unsetenv("UATM_PERF");
    EXPECT_FALSE(perfArmed());
    setenv("UATM_PERF", "", 1);
    EXPECT_FALSE(perfArmed());
    setenv("UATM_PERF", "0", 1);
    EXPECT_FALSE(perfArmed());
    setenv("UATM_PERF", "1", 1);
    EXPECT_TRUE(perfArmed());
    // A switch is 1 or 0: "yes" leaves it off, with a warning.
    setenv("UATM_PERF", "yes", 1);
    testing::internal::CaptureStderr();
    EXPECT_FALSE(perfArmed());
    EXPECT_EQ(testing::internal::GetCapturedStderr(),
              "uatm: warn: UATM_PERF must be 1 or 0 (got \"yes\"); "
              "leaving it off\n");

    if (saved)
        setenv("UATM_PERF", restore.c_str(), 1);
    else
        unsetenv("UATM_PERF");
}

} // namespace
