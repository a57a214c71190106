// Causal-trace tests: parent/child nesting must survive ThreadPool
// fan-out at every thread count, the Chrome trace exporter must emit
// valid JSON with the window → block → per-worker span tree intact on
// per-thread tracks (the PR's acceptance criterion), and the disabled
// span path must stay cheap enough for always-on instrumentation.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <vector>

#include "core/node.hpp"
#include "intermediary/converter.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/json.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace ebv {
namespace {

class TraceTree : public ::testing::Test {
protected:
    void SetUp() override {
        obs::Tracer& tracer = obs::Tracer::global();
        tracer.set_enabled(true);
        tracer.set_detail(false);
        tracer.set_capacity(1 << 16);
        tracer.clear();
    }
    void TearDown() override {
        obs::Tracer& tracer = obs::Tracer::global();
        tracer.set_detail(false);
        tracer.set_capacity(8192);
        tracer.clear();
        tracer.set_enabled(true);
    }

    static std::vector<obs::Span> spans_named(std::string_view name) {
        std::vector<obs::Span> out;
        for (obs::Span& span : obs::Tracer::global().snapshot()) {
            if (span.name == name) out.push_back(std::move(span));
        }
        return out;
    }
};

TEST_F(TraceTree, NestedScopedSpansFormOneTree) {
    std::uint64_t outer_id = 0;
    {
        obs::ScopedSpan outer("outer", "test");
        outer_id = outer.span_id();
        ASSERT_NE(outer_id, 0u);
        obs::ScopedSpan inner("inner", "test");
        EXPECT_NE(inner.span_id(), outer_id);
    }
    const auto outer_spans = spans_named("outer");
    const auto inner_spans = spans_named("inner");
    ASSERT_EQ(outer_spans.size(), 1u);
    ASSERT_EQ(inner_spans.size(), 1u);
    EXPECT_EQ(outer_spans[0].parent_id, 0u);  // root
    EXPECT_EQ(inner_spans[0].parent_id, outer_id);
    EXPECT_EQ(inner_spans[0].trace_id, outer_spans[0].trace_id);
    EXPECT_NE(outer_spans[0].trace_id, 0u);
    // The context is popped on destruction: a fresh span is a new root.
    EXPECT_EQ(obs::current_context().span_id, 0u);
}

TEST_F(TraceTree, NestingSurvivesParallelForFanOut) {
    for (const std::size_t threads : {1u, 2u, 8u}) {
        obs::Tracer::global().clear();
        util::ThreadPool pool(threads);
        std::uint64_t root_id = 0;
        std::uint64_t root_trace = 0;
        {
            obs::ScopedSpan root("fanout.root", "test");
            root_id = root.span_id();
            root_trace = obs::current_context().trace_id;
            pool.parallel_for(64, [&](std::size_t) {
                obs::ScopedSpan child("fanout.child", "test");
                (void)child;
            });
        }
        const auto children = spans_named("fanout.child");
        ASSERT_EQ(children.size(), 64u) << "threads=" << threads;
        std::set<std::uint64_t> ids;
        for (const obs::Span& child : children) {
            EXPECT_EQ(child.parent_id, root_id) << "threads=" << threads;
            EXPECT_EQ(child.trace_id, root_trace) << "threads=" << threads;
            ids.insert(child.span_id);
        }
        EXPECT_EQ(ids.size(), 64u) << "span ids must be unique";
        // Worker threads must restore their previous (empty) context.
        EXPECT_EQ(obs::current_context().span_id, 0u);
    }
}

TEST_F(TraceTree, PostHocRecordParentsUnderCurrentSpan) {
    std::uint64_t parent_id = 0;
    {
        obs::ScopedSpan parent("posthoc.parent", "test");
        parent_id = parent.span_id();
        util::TimeCost cost;
        cost.wall_ns = 1234;
        obs::Tracer::global().record("posthoc.child", cost);
    }
    const auto children = spans_named("posthoc.child");
    ASSERT_EQ(children.size(), 1u);
    EXPECT_EQ(children[0].parent_id, parent_id);
    EXPECT_EQ(children[0].wall_ns, 1234);
}

TEST_F(TraceTree, ChromeExportIsValidJson) {
    {
        obs::ScopedSpan root("export.root", "test");
        obs::ScopedSpan child("export\"needs escaping\\", "test");
        (void)child;
    }
    obs::Tracer::global().record_counter("export.counter", 42);

    const std::string json = obs::to_chrome_trace(obs::Tracer::global().snapshot());
    const auto doc = util::json::parse(json);
    ASSERT_TRUE(doc.has_value()) << json;

    const util::json::Value* events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->is_array());

    std::size_t slices = 0;
    std::size_t counters = 0;
    std::size_t metadata = 0;
    std::set<double> tids;
    for (const auto& event : events->as_array()) {
        const std::string& ph = event.get("ph")->as_string();
        ASSERT_NE(event.get("tid"), nullptr);
        const double tid = event.get("tid")->as_number();
        EXPECT_GE(tid, 0.0);
        EXPECT_LT(tid, 1000.0) << "tids must be compressed, not hashes";
        if (ph == "X") {
            ++slices;
            tids.insert(tid);
            EXPECT_NE(event.get("ts"), nullptr);
            EXPECT_NE(event.get("dur"), nullptr);
            EXPECT_NE(event.get("args")->get("span"), nullptr);
            EXPECT_NE(event.get("args")->get("parent"), nullptr);
        } else if (ph == "C") {
            ++counters;
            EXPECT_DOUBLE_EQ(event.get("args")->get("value")->as_number(), 42.0);
        } else if (ph == "M") {
            ++metadata;
            EXPECT_EQ(event.get("name")->as_string(), "thread_name");
        }
    }
    EXPECT_EQ(slices, 2u);
    EXPECT_EQ(counters, 1u);
    EXPECT_EQ(metadata, tids.size());  // every used track is named
}

TEST_F(TraceTree, FoldedStacksComputeSelfTime) {
    obs::Tracer& tracer = obs::Tracer::global();
    const std::uint64_t trace = obs::next_span_id();
    const std::uint64_t root = obs::next_span_id();
    const std::uint64_t child = obs::next_span_id();

    obs::Span root_span;
    root_span.name = "stack.root";
    root_span.trace_id = trace;
    root_span.span_id = root;
    root_span.wall_ns = 100;
    tracer.record(root_span);

    obs::Span child_span;
    child_span.name = "stack.child";
    child_span.trace_id = trace;
    child_span.span_id = child;
    child_span.parent_id = root;
    child_span.wall_ns = 60;
    tracer.record(child_span);

    const std::string folded = obs::to_folded_stacks(tracer.snapshot());
    EXPECT_NE(folded.find("stack.root 40\n"), std::string::npos) << folded;
    EXPECT_NE(folded.find("stack.root;stack.child 60\n"), std::string::npos) << folded;
}

TEST_F(TraceTree, RingStateIsExportedAsMetrics) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.set_capacity(4);
    const std::uint64_t dropped_before =
        obs::Registry::global().counter("ebv.obs.spans_dropped").value();
    for (int i = 0; i < 10; ++i) {
        obs::ScopedSpan span("ring.span", "test");
        (void)span;
    }
    EXPECT_EQ(tracer.snapshot().size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    EXPECT_EQ(obs::Registry::global().counter("ebv.obs.spans_dropped").value(),
              dropped_before + 6);
    EXPECT_EQ(obs::Registry::global().gauge("ebv.obs.trace_capacity").value(), 4);
    EXPECT_EQ(obs::Registry::global().gauge("ebv.obs.trace_enabled").value(), 1);

    tracer.set_enabled(false);
    EXPECT_EQ(obs::Registry::global().gauge("ebv.obs.trace_enabled").value(), 0);
    tracer.set_enabled(true);
}

TEST_F(TraceTree, DisabledSpanStaysCheap) {
    obs::Tracer& tracer = obs::Tracer::global();
    tracer.clear();
    tracer.set_enabled(false);

    constexpr int kIters = 200000;
    // Warm up, then time: the disabled path is one relaxed atomic load.
    for (int i = 0; i < 1000; ++i) obs::ScopedSpan span("cheap", "test");
    util::Stopwatch watch;
    for (int i = 0; i < kIters; ++i) obs::ScopedSpan span("cheap", "test");
    const double per_span =
        static_cast<double>(watch.elapsed_ns()) / static_cast<double>(kIters);

    tracer.set_enabled(true);
    EXPECT_EQ(tracer.recorded(), 0u) << "disabled spans must not record";
    EXPECT_EQ(obs::current_context().span_id, 0u)
        << "disabled spans must not touch the context";
    // "A few ns" on a quiet machine; 100 ns keeps sanitizer/CI runs from
    // flaking while still catching an accidental mutex or clock read
    // (either costs well over 100 ns under contention-free conditions the
    // loop above creates... a recorded span costs ~µs).
    EXPECT_LT(per_span, 100.0) << "disabled ScopedSpan cost " << per_span << " ns";
}

// The acceptance-criterion test: a pipelined IBD run with detail tracing
// produces a Chrome trace whose span tree is window → block →
// per-worker EV/SV, with events on compressed per-thread
// tracks, parsed back from the exporter's actual JSON output.
TEST_F(TraceTree, PipelineChromeTraceNestsWindowBlockWorker) {
    workload::GeneratorOptions gen_options;
    gen_options.seed = 7;
    gen_options.params.coinbase_maturity = 5;
    gen_options.schedule = workload::EraSchedule::flat(4.0, 1.6, 2.0);
    gen_options.height_scale = 1.0;
    gen_options.intensity = 1.0;
    gen_options.key_pool_size = 8;

    workload::ChainGenerator gen(gen_options);
    intermediary::Converter converter;
    std::vector<core::EbvBlock> chain;
    for (std::size_t i = 0; i < 30; ++i) {
        auto converted = converter.convert_block(gen.next_block());
        ASSERT_TRUE(converted.has_value());
        chain.push_back(*converted);
    }

    obs::Tracer::global().set_detail(true);
    util::ThreadPool pool(8);
    core::EbvNodeOptions options;
    options.params = gen_options.params;
    options.validator.script_pool = &pool;
    options.pipeline.enabled = true;
    options.pipeline.window = 8;
    core::EbvNode node(options);
    const ibd::BatchResult result = node.submit_blocks(chain);
    ASSERT_TRUE(result.ok());
    ASSERT_EQ(result.connected, chain.size());
    obs::Tracer::global().set_detail(false);

    // Round-trip through the file writer, as the bench harness does.
    const std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("ebv_trace_test_" + std::to_string(::getpid()) + ".json");
    ASSERT_TRUE(obs::write_chrome_trace(path.string()));
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::filesystem::remove(path);

    const auto doc = util::json::parse(buffer.str());
    ASSERT_TRUE(doc.has_value());
    const util::json::Value* events = doc->get("traceEvents");
    ASSERT_NE(events, nullptr);

    struct Event {
        std::uint64_t span = 0;
        std::uint64_t parent = 0;
        double tid = 0;
    };
    std::map<std::string, std::vector<Event>> by_name;
    std::set<double> tids;
    std::set<double> named_tids;
    for (const auto& event : events->as_array()) {
        const std::string& ph = event.get("ph")->as_string();
        if (ph == "M") {
            named_tids.insert(event.get("tid")->as_number());
            continue;
        }
        if (ph != "X") continue;
        Event e;
        e.span = static_cast<std::uint64_t>(event.get("args")->get("span")->as_number());
        e.parent =
            static_cast<std::uint64_t>(event.get("args")->get("parent")->as_number());
        e.tid = event.get("tid")->as_number();
        tids.insert(e.tid);
        by_name[event.get("name")->as_string()].push_back(e);
    }

    // One run span, rooted; 30 blocks over window 8 → 4 windows under it.
    ASSERT_EQ(by_name["ebv.ibd.run"].size(), 1u);
    const Event run = by_name["ebv.ibd.run"][0];
    EXPECT_EQ(run.parent, 0u);
    ASSERT_EQ(by_name["ebv.ibd.window"].size(), 4u);
    std::set<std::uint64_t> window_ids;
    for (const Event& window : by_name["ebv.ibd.window"]) {
        EXPECT_EQ(window.parent, run.span);
        window_ids.insert(window.span);
    }

    ASSERT_EQ(by_name["ebv.ibd.block"].size(), chain.size());
    std::set<std::uint64_t> block_ids;
    for (const Event& block : by_name["ebv.ibd.block"]) {
        EXPECT_EQ(window_ids.count(block.parent), 1u)
            << "block span must nest under a window span";
        block_ids.insert(block.span);
    }

    const auto& ev_spans = by_name["ebv.ev.input"];
    ASSERT_FALSE(ev_spans.empty()) << "detail tracing must emit per-input EV spans";
    for (const Event& ev : ev_spans) {
        EXPECT_EQ(block_ids.count(ev.parent), 1u)
            << "EV span must nest under a block span";
    }
    ASSERT_FALSE(by_name["ebv.sv.input"].empty());
    for (const Event& sv : by_name["ebv.sv.input"]) {
        EXPECT_EQ(block_ids.count(sv.parent), 1u);
    }

    // Per-thread tracks: events landed on more than one compressed tid and
    // every tid used has thread_name metadata.
    EXPECT_GE(tids.size(), 2u) << "worker spans should land on worker tracks";
    for (const double tid : tids) EXPECT_EQ(named_tids.count(tid), 1u);
}

}  // namespace
}  // namespace ebv
