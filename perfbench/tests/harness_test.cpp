// Self-test of the harness arithmetic: tail percentile selection, refusal
// and failure accounting, and the result line.
//
//   cmake --build .bench_build/perfbench --target perfbench_selftest
//   .bench_build/perfbench/perfbench_selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "harness.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
    if (!ok) {
        std::printf("FAIL: %s\n", what);
        ++g_failures;
    }
}

std::vector<double> one_to(std::size_t n) {
    std::vector<double> out;
    for (std::size_t i = 1; i <= n; ++i) {
        out.push_back(static_cast<double>(i));
    }
    return out;
}

void test_percentile() {
    const std::vector<double> v = one_to(100);
    expect(perfbench::percentile(v, 0.5) == 50.0, "p50 of 1..100 is 50");
    expect(perfbench::percentile(v, 0.99) == 99.0, "p99 of 1..100 is 99");
    expect(perfbench::percentile(v, 1.0) == 100.0, "p100 is the max");
    expect(perfbench::percentile({}, 0.5) == 0.0, "empty sample reads 0");
    expect(perfbench::median({3.0, 1.0, 2.0}) == 2.0, "median sorts");
}

void test_tail() {
    // 2000 samples: p99 has 20 beyond it, so p99 stands.
    perfbench::Tail tail = perfbench::tail_percentile(one_to(2000));
    expect(tail.valid && tail.value == 1980.0 && tail.beyond == 20, "p99 of 2000 samples");
    // 1000 samples: p99 has exactly 10 beyond it.
    tail = perfbench::tail_percentile(one_to(1000));
    expect(tail.value == 990.0 && tail.beyond == 10, "p99 of 1000 samples");
    // 500 samples: p99 would leave 5 beyond; step down to 10 beyond.
    tail = perfbench::tail_percentile(one_to(500));
    expect(tail.value == 490.0 && tail.beyond == 10 && tail.percentile == 0.98,
           "tail of 500 samples keeps 10 beyond");
    tail = perfbench::tail_percentile(one_to(36));
    expect(tail.value == 26.0 && tail.beyond == 10, "tail of 36 samples");
    tail = perfbench::tail_percentile(one_to(20));
    expect(tail.valid && tail.value == 10.0 && tail.beyond == 10, "tail of 20 samples");
    // Too few samples for a tail above the median: the max, flagged invalid.
    tail = perfbench::tail_percentile(one_to(19));
    expect(!tail.valid && tail.value == 19.0, "19 samples have no tail");
    tail = perfbench::tail_percentile(one_to(10));
    expect(!tail.valid && tail.value == 10.0, "10 samples have no tail");
}

void test_refusals() {
    // Closed loop: request 7 is outstanding on the connection.
    perfbench::ReplyInfo reply;
    reply.has_id = true;
    reply.id = 7;
    expect(perfbench::closed_loop_answer(reply, 7) == 7, "an answer to the outstanding id");
    expect(perfbench::closed_loop_answer(reply, 8) == 0, "an answer to another id");
    expect(perfbench::closed_loop_answer(reply, 0) == 0, "an answer with nothing outstanding");
    perfbench::ReplyInfo refusal;
    refusal.refused = true;
    expect(perfbench::closed_loop_answer(refusal, 7) == 7,
           "an id-less refusal answers the request outstanding on its connection");
    expect(perfbench::closed_loop_answer(refusal, 0) == 0,
           "a refusal with nothing outstanding answers nothing");
    expect(perfbench::closed_loop_answer(perfbench::ReplyInfo{}, 7) == 0,
           "a reply with neither id nor refusal answers nothing");

    // Refused requests enter the sample as +inf: they miss every limit.
    std::vector<double> lat = one_to(98);
    lat.push_back(INFINITY);
    lat.push_back(INFINITY);
    const perfbench::LatencySummary summary = perfbench::summarize(lat);
    expect(summary.count == 100 && summary.p50 == 50.0, "p50 with two refusals");
    expect(summary.tail.value == 90.0 && summary.tail.beyond == 10,
           "tail keeps 10 beyond, the refusals among them");
    const std::vector<double> all_refused(20, INFINITY);
    expect(std::isinf(perfbench::summarize(all_refused).p50), "all refused: p50 is infinite");
}

void test_result_line() {
    std::map<std::string, perfbench::Metric> metrics;
    metrics["lat_p50_ms"] = {0.125, "ms"};
    metrics["lat_tail_ms"] = {INFINITY, "ms"};
    const std::string line = perfbench::result_line(true, 10, 1, metrics);
    expect(line == "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": "
                   "{\"lat_p50_ms\": {\"value\": 0.125, \"unit\": \"ms\"}, \"lat_tail_ms\": "
                   "{\"value\": 1.7976931348623157e+308, \"unit\": \"ms\"}}}",
           "result line format");
    expect(perfbench::overhead_pct(100.0, 103.0) == 3.0, "overhead in percent");
}

}  // namespace

int main() {
    test_percentile();
    test_tail();
    test_refusals();
    test_result_line();
    if (g_failures == 0) {
        std::printf("perfbench_selftest: all checks passed\n");
    }
    return g_failures == 0 ? 0 : 1;
}
