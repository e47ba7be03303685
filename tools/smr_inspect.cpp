// smr_inspect — load the observability artifacts of one or two runs.
//
//   # what happened in this run?
//   smr_inspect summary out/baseline
//
//   # did the candidate regress against the baseline?
//   smr_inspect diff out/baseline out/candidate --makespan-threshold=0.05
//
// A "run dir" is any directory holding some of the conventional artifact
// files the other tools write (all optional; absent files are skipped):
//
//   metrics.jsonl    smr_sim/smr_serve --metrics-out
//   spans.jsonl      smr_sim --spans-out
//   critpath.json    smr_sim --critpath-out
//   decisions.csv    smr_sim --decisions-out
//   report.json      smr_serve --report-out
//   alerts.jsonl     smr_serve --alerts-out
//   shards.json      smr_sim/smr_serve --shards-out
//   fairness.json    smr_serve --fairness-out (single run, sweep or frontier)
//
// `summary` prints one digest per artifact.  `diff` compares the shared
// artifacts and exits 2 when the candidate regresses past the thresholds:
// aggregate critical-path growth, per-segment growth (e.g. the retry
// segment after cranking --task-fail-rate), serve makespan or p95 latency
// growth, new SLO burn alerts, or
// fairness erosion (a Jain-index or welfare *drop*, or envy growth —
// fairness metrics regress downward, unlike the time-based ones).
// Identical dirs always diff clean (regressions require strict growth),
// so `smr_inspect diff run run` is a cheap self-check.
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "smr/common/flags.hpp"
#include "smr/common/json.hpp"

using namespace smr;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "smr_inspect: %s\n", message.c_str());
  return 1;
}

std::optional<std::string> slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Everything smr_inspect knows about one run dir.  Absent artifacts stay
/// empty/nullopt; malformed ones are a hard error (corrupt output should
/// fail loudly, not read as "no regression").
struct RunData {
  std::string dir;
  bool any = false;

  // metrics.jsonl
  std::map<std::string, double> counters;
  std::map<std::string, JsonValue> histograms;
  std::map<std::string, std::size_t> series_samples;

  // spans.jsonl
  std::size_t spans = 0;
  std::size_t attempts = 0;
  std::size_t failed_attempts = 0;
  std::size_t retries = 0;  // attempts with retry_of set

  // critpath.json
  std::optional<JsonValue> critpath;

  // decisions.csv
  std::size_t decisions = 0;
  std::map<std::string, std::size_t> decision_actions;

  // report.json / alerts.jsonl
  std::optional<JsonValue> report;
  std::size_t alerts = 0;
  double max_burn = 0.0;

  // fairness.json: one entry per report ({"reports":[...]} is flattened,
  // a bare single-run report becomes one entry)
  std::vector<JsonValue> fairness;

  // shards.json (sharded-engine window stats; empty when absent or when
  // the run used --shards=1 implicitly)
  struct ShardInfo {
    int shard = 0;
    int node_begin = 0;
    int node_end = 0;
    double windows = 0.0;
    double entries = 0.0;
    double entries_peak = 0.0;
    double mean_occupancy = 0.0;
    double barrier_stall_s = 0.0;
  };
  std::vector<ShardInfo> shards;
};

bool load_run(const std::string& dir, RunData& run, std::string& error) {
  run.dir = dir;

  if (const auto text = slurp(dir + "/metrics.jsonl")) {
    const auto lines = parse_jsonl(*text, &error);
    if (!lines) {
      error = dir + "/metrics.jsonl: " + error;
      return false;
    }
    run.any = true;
    for (const JsonValue& line : *lines) {
      const std::string type = line.string_or("type", "");
      const std::string name = line.string_or("name", "");
      if (type == "counter" || type == "gauge") {
        run.counters[name] = line.number_or("value", 0.0);
      } else if (type == "histogram") {
        run.histograms[name] = line;
      } else if (type == "series") {
        ++run.series_samples[name];
      }
    }
  }

  if (const auto text = slurp(dir + "/spans.jsonl")) {
    const auto lines = parse_jsonl(*text, &error);
    if (!lines) {
      error = dir + "/spans.jsonl: " + error;
      return false;
    }
    run.any = true;
    run.spans = lines->size();
    for (const JsonValue& line : *lines) {
      if (line.string_or("kind", "") != "attempt") continue;
      ++run.attempts;
      if (line.string_or("outcome", "") == "failed") ++run.failed_attempts;
      if (line.number_or("retry_of", -1.0) >= 0.0) ++run.retries;
    }
  }

  if (const auto text = slurp(dir + "/critpath.json")) {
    const auto doc = parse_json(*text, &error);
    if (!doc) {
      error = dir + "/critpath.json: " + error;
      return false;
    }
    run.any = true;
    run.critpath = *doc;
  }

  if (const auto text = slurp(dir + "/decisions.csv")) {
    run.any = true;
    std::istringstream in(*text);
    std::string line;
    bool header = true;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (header) {  // id,time,action,...
        header = false;
        continue;
      }
      ++run.decisions;
      const std::size_t first = line.find(',');
      const std::size_t second =
          first == std::string::npos ? first : line.find(',', first + 1);
      const std::size_t third =
          second == std::string::npos ? second : line.find(',', second + 1);
      if (second != std::string::npos) {
        ++run.decision_actions[line.substr(second + 1,
                                           third - second - 1)];
      }
    }
  }

  if (const auto text = slurp(dir + "/report.json")) {
    const auto doc = parse_json(*text, &error);
    if (!doc) {
      error = dir + "/report.json: " + error;
      return false;
    }
    run.any = true;
    run.report = *doc;
  }

  if (const auto text = slurp(dir + "/alerts.jsonl")) {
    const auto lines = parse_jsonl(*text, &error);
    if (!lines) {
      error = dir + "/alerts.jsonl: " + error;
      return false;
    }
    run.any = true;
    run.alerts = lines->size();
    for (const JsonValue& line : *lines) {
      run.max_burn = std::max(run.max_burn, line.number_or("burn_rate", 0.0));
    }
  }

  if (const auto text = slurp(dir + "/fairness.json")) {
    const auto doc = parse_json(*text, &error);
    if (!doc) {
      error = dir + "/fairness.json: " + error;
      return false;
    }
    run.any = true;
    if (const JsonValue* reports = doc->find("reports"); reports != nullptr) {
      for (const JsonValue& report : reports->as_array()) {
        run.fairness.push_back(report);
      }
    } else {
      run.fairness.push_back(*doc);
    }
  }

  if (const auto text = slurp(dir + "/shards.json")) {
    const auto doc = parse_json(*text, &error);
    if (!doc) {
      error = dir + "/shards.json: " + error;
      return false;
    }
    run.any = true;
    if (const JsonValue* shards = doc->find("shards"); shards != nullptr) {
      for (const JsonValue& entry : shards->as_array()) {
        RunData::ShardInfo info;
        info.shard = static_cast<int>(entry.number_or("shard", 0.0));
        info.node_begin = static_cast<int>(entry.number_or("node_begin", 0.0));
        info.node_end = static_cast<int>(entry.number_or("node_end", 0.0));
        info.windows = entry.number_or("windows", 0.0);
        info.entries = entry.number_or("entries", 0.0);
        info.entries_peak = entry.number_or("entries_peak", 0.0);
        info.mean_occupancy = entry.number_or("mean_occupancy", 0.0);
        info.barrier_stall_s = entry.number_or("barrier_stall_s", 0.0);
        run.shards.push_back(info);
      }
    }
  }

  if (!run.any) {
    error = dir + ": no artifacts found (expected metrics.jsonl, "
                  "spans.jsonl, critpath.json, decisions.csv, report.json, "
                  "alerts.jsonl, fairness.json or shards.json)";
    return false;
  }
  return true;
}

const char* kSegments[] = {"wait_for_slot", "data_transfer", "compute",
                           "retry", "scheduler_overhead"};

int summarize(const RunData& run) {
  std::printf("run: %s\n", run.dir.c_str());

  if (!run.counters.empty() || !run.histograms.empty()) {
    std::printf("\nmetrics.jsonl: %zu counters/gauges, %zu histograms, "
                "%zu series\n",
                run.counters.size(), run.histograms.size(),
                run.series_samples.size());
    for (const auto& [name, value] : run.counters) {
      std::printf("  %-28s %12.0f\n", name.c_str(), value);
    }
    for (const auto& [name, h] : run.histograms) {
      std::printf("  %-28s count=%.0f p50=%.1f p95=%.1f p99=%.1f\n",
                  name.c_str(), h.number_or("count", 0.0),
                  h.number_or("p50", 0.0), h.number_or("p95", 0.0),
                  h.number_or("p99", 0.0));
    }
  }

  if (run.spans > 0) {
    std::printf("\nspans.jsonl: %zu spans, %zu attempts "
                "(%zu failed, %zu retries)\n",
                run.spans, run.attempts, run.failed_attempts, run.retries);
  }

  if (run.critpath) {
    const JsonValue* jobs = run.critpath->find("jobs");
    const JsonValue* agg = run.critpath->find("aggregate");
    std::printf("\ncritpath.json: %zu jobs on the critical path\n",
                jobs != nullptr ? jobs->as_array().size() : 0);
    if (agg != nullptr) {
      const double total = agg->number_or("total", 0.0);
      for (const char* segment : kSegments) {
        const double value = agg->number_or(segment, 0.0);
        std::printf("  %-20s %10.1fs  %5.1f%%\n", segment, value,
                    total > 0.0 ? 100.0 * value / total : 0.0);
      }
      std::printf("  %-20s %10.1fs\n", "total", total);
    }
  }

  if (run.decisions > 0) {
    std::printf("\ndecisions.csv: %zu decisions\n", run.decisions);
    for (const auto& [action, count] : run.decision_actions) {
      std::printf("  %-20s %6zu\n", action.c_str(), count);
    }
  }

  if (run.report) {
    const JsonValue* agg = run.report->find("aggregate");
    std::printf("\nreport.json: engine=%s makespan=%.0fs utilization=%.2f\n",
                run.report->string_or("engine", "?").c_str(),
                run.report->number_or("makespan_s", 0.0),
                run.report->number_or("utilization", 0.0));
    if (agg != nullptr) {
      const JsonValue* latency = agg->find("latency");
      std::printf("  completed=%.0f failed=%.0f shed=%.0f slo_met=%.0f\n",
                  agg->number_or("completed", 0.0),
                  agg->number_or("failed", 0.0), agg->number_or("shed", 0.0),
                  agg->number_or("slo_met", 0.0));
      if (latency != nullptr) {
        std::printf("  latency p50=%.1fs p95=%.1fs p99=%.1fs\n",
                    latency->number_or("p50_s", 0.0),
                    latency->number_or("p95_s", 0.0),
                    latency->number_or("p99_s", 0.0));
      }
    }
  }

  if (!run.fairness.empty()) {
    std::printf("\nfairness.json: %zu report(s)\n", run.fairness.size());
    for (const JsonValue& report : run.fairness) {
      const JsonValue* tenants = report.find("tenants");
      std::printf(
          "  %-28s jain=%.3f envy=%.3f util=%.3f nash=%.3f tenants=%zu\n",
          report.string_or("policy", "?").c_str(),
          report.number_or("jain", 0.0), report.number_or("max_envy", 0.0),
          report.number_or("utilitarian_welfare", 0.0),
          report.number_or("nash_welfare", 0.0),
          tenants != nullptr ? tenants->as_array().size() : 0);
    }
  }

  if (!run.shards.empty()) {
    std::printf("\nshards.json: %zu shards\n", run.shards.size());
    std::printf("  %5s %11s %8s %9s %10s %10s %9s\n", "shard", "nodes",
                "windows", "entries", "peak_occ", "mean_occ", "stall_s");
    for (const RunData::ShardInfo& s : run.shards) {
      std::printf("  %5d %5d-%-5d %8.0f %9.0f %10.0f %10.2f %9.3f\n", s.shard,
                  s.node_begin, s.node_end, s.windows, s.entries,
                  s.entries_peak, s.mean_occupancy, s.barrier_stall_s);
    }
  }

  std::printf("\nalerts.jsonl: %zu burn-rate alerts", run.alerts);
  if (run.alerts > 0) std::printf(" (max burn %.2fx)", run.max_burn);
  std::printf("\n");
  return 0;
}

struct DiffLine {
  std::string what;
  double base = 0.0;
  double cand = 0.0;
  bool regression = false;
  std::string note;
};

/// Strict-growth check: regression iff the candidate exceeds the baseline
/// by more than `rel_threshold` *and* by more than `abs_floor` seconds (or
/// units).  delta == 0 is never a regression, so self-diffs exit clean.
bool regressed(double base, double cand, double rel_threshold,
               double abs_floor) {
  const double delta = cand - base;
  if (delta <= abs_floor) return false;
  if (base <= 0.0) return true;  // grew from nothing past the floor
  return delta / base > rel_threshold;
}

int diff(const RunData& base, const RunData& cand, const FlagSet& flags) {
  const double makespan_threshold = flags.get_double("makespan-threshold");
  const double segment_threshold = flags.get_double("segment-threshold");
  const double segment_floor = flags.get_double("segment-floor");
  const double stall_threshold = flags.get_double("stall-threshold");
  const double stall_floor = flags.get_double("stall-floor");

  std::vector<DiffLine> lines;

  if (base.critpath && cand.critpath) {
    const JsonValue* base_agg = base.critpath->find("aggregate");
    const JsonValue* cand_agg = cand.critpath->find("aggregate");
    if (base_agg != nullptr && cand_agg != nullptr) {
      DiffLine total;
      total.what = "critpath.total_s";
      total.base = base_agg->number_or("total", 0.0);
      total.cand = cand_agg->number_or("total", 0.0);
      total.regression = regressed(total.base, total.cand, makespan_threshold,
                                   segment_floor);
      lines.push_back(total);
      for (const char* segment : kSegments) {
        DiffLine line;
        line.what = std::string("critpath.") + segment + "_s";
        line.base = base_agg->number_or(segment, 0.0);
        line.cand = cand_agg->number_or(segment, 0.0);
        line.regression = regressed(line.base, line.cand, segment_threshold,
                                    segment_floor);
        lines.push_back(line);
      }
    }
  }

  if (base.spans > 0 && cand.spans > 0) {
    DiffLine retries;
    retries.what = "spans.retries";
    retries.base = static_cast<double>(base.retries);
    retries.cand = static_cast<double>(cand.retries);
    retries.note = "informational";
    lines.push_back(retries);
    DiffLine failed;
    failed.what = "spans.failed_attempts";
    failed.base = static_cast<double>(base.failed_attempts);
    failed.cand = static_cast<double>(cand.failed_attempts);
    failed.note = "informational";
    lines.push_back(failed);
  }

  // Counters both runs emitted, skipping the pure bookkeeping ones.
  for (const auto& [name, base_value] : base.counters) {
    const auto found = cand.counters.find(name);
    if (found == cand.counters.end()) continue;
    if (base_value == found->second) continue;
    DiffLine line;
    line.what = "counter." + name;
    line.base = base_value;
    line.cand = found->second;
    line.note = "informational";
    lines.push_back(line);
  }

  if (base.report && cand.report) {
    DiffLine makespan;
    makespan.what = "report.makespan_s";
    makespan.base = base.report->number_or("makespan_s", 0.0);
    makespan.cand = cand.report->number_or("makespan_s", 0.0);
    makespan.regression = regressed(makespan.base, makespan.cand,
                                    makespan_threshold, segment_floor);
    lines.push_back(makespan);
    const JsonValue* base_agg = base.report->find("aggregate");
    const JsonValue* cand_agg = cand.report->find("aggregate");
    const JsonValue* base_latency =
        base_agg != nullptr ? base_agg->find("latency") : nullptr;
    const JsonValue* cand_latency =
        cand_agg != nullptr ? cand_agg->find("latency") : nullptr;
    if (base_latency != nullptr && cand_latency != nullptr) {
      DiffLine p95;
      p95.what = "report.latency_p95_s";
      p95.base = base_latency->number_or("p95_s", 0.0);
      p95.cand = cand_latency->number_or("p95_s", 0.0);
      p95.regression =
          regressed(p95.base, p95.cand, makespan_threshold, segment_floor);
      lines.push_back(p95);
    }
  }

  // Sharded-engine window stats.  barrier_stall_s is wall-clock (noisy
  // run to run), so the stall floor does the heavy lifting; occupancy is
  // simulation-derived and compared per shard.  Shard-count changes
  // between runs are reported but never a regression by themselves — the
  // simulation outputs are byte-identical across shard counts.
  if (!base.shards.empty() && !cand.shards.empty()) {
    if (base.shards.size() != cand.shards.size()) {
      DiffLine count;
      count.what = "shards.count";
      count.base = static_cast<double>(base.shards.size());
      count.cand = static_cast<double>(cand.shards.size());
      count.note = "shard count changed; per-shard diff skipped";
      lines.push_back(count);
    } else {
      for (std::size_t i = 0; i < base.shards.size(); ++i) {
        DiffLine stall;
        stall.what = "shard" + std::to_string(i) + ".barrier_stall_s";
        stall.base = base.shards[i].barrier_stall_s;
        stall.cand = cand.shards[i].barrier_stall_s;
        stall.regression =
            regressed(stall.base, stall.cand, stall_threshold, stall_floor);
        lines.push_back(stall);
        DiffLine occupancy;
        occupancy.what = "shard" + std::to_string(i) + ".mean_occupancy";
        occupancy.base = base.shards[i].mean_occupancy;
        occupancy.cand = cand.shards[i].mean_occupancy;
        occupancy.regression = regressed(occupancy.base, occupancy.cand,
                                         segment_threshold, segment_floor);
        lines.push_back(occupancy);
      }
    }
  }

  // Fairness reports matched by policy label.  These metrics regress in
  // the opposite direction from the time-based ones: a Jain-index or
  // welfare *drop* is the failure, and envy regresses by *growing*.
  if (!base.fairness.empty() && !cand.fairness.empty()) {
    const double jain_drop = flags.get_double("jain-drop");
    const double envy_growth = flags.get_double("envy-growth");
    const double welfare_drop = flags.get_double("welfare-drop");
    std::map<std::string, const JsonValue*> base_reports;
    for (const JsonValue& report : base.fairness) {
      base_reports[report.string_or("policy", "")] = &report;
    }
    for (const JsonValue& report : cand.fairness) {
      const std::string policy = report.string_or("policy", "");
      const auto found = base_reports.find(policy);
      if (found == base_reports.end()) continue;
      const JsonValue& baseline = *found->second;
      const std::string prefix =
          "fairness[" + (policy.empty() ? "?" : policy) + "].";

      DiffLine jain;
      jain.what = prefix + "jain";
      jain.base = baseline.number_or("jain", 0.0);
      jain.cand = report.number_or("jain", 0.0);
      jain.regression = jain.base - jain.cand > jain_drop;
      if (jain.regression) jain.note = "fairness drop";
      lines.push_back(jain);

      DiffLine envy;
      envy.what = prefix + "max_envy";
      envy.base = baseline.number_or("max_envy", 0.0);
      envy.cand = report.number_or("max_envy", 0.0);
      envy.regression = envy.cand - envy.base > envy_growth;
      if (envy.regression) envy.note = "envy growth";
      lines.push_back(envy);

      DiffLine nash;
      nash.what = prefix + "nash_welfare";
      nash.base = baseline.number_or("nash_welfare", 0.0);
      nash.cand = report.number_or("nash_welfare", 0.0);
      nash.regression = nash.base - nash.cand > welfare_drop;
      if (nash.regression) nash.note = "welfare drop";
      lines.push_back(nash);

      DiffLine util;
      util.what = prefix + "utilitarian_welfare";
      util.base = baseline.number_or("utilitarian_welfare", 0.0);
      util.cand = report.number_or("utilitarian_welfare", 0.0);
      util.regression = util.base - util.cand > welfare_drop;
      if (util.regression) util.note = "welfare drop";
      lines.push_back(util);
    }
  }

  {
    DiffLine alerts;
    alerts.what = "alerts.count";
    alerts.base = static_cast<double>(base.alerts);
    alerts.cand = static_cast<double>(cand.alerts);
    alerts.regression = cand.alerts > base.alerts;
    if (alerts.regression) alerts.note = "new burn-rate alerts";
    lines.push_back(alerts);
  }

  std::printf("diff: %s -> %s\n", base.dir.c_str(), cand.dir.c_str());
  std::printf("%-28s %12s %12s %9s  %s\n", "metric", "baseline", "candidate",
              "delta", "");
  bool any_regression = false;
  for (const DiffLine& line : lines) {
    const double delta = line.cand - line.base;
    const char* marker =
        line.regression ? "REGRESSION" : line.note.c_str();
    std::printf("%-28s %12.3f %12.3f %+9.3f  %s\n", line.what.c_str(),
                line.base, line.cand, delta, marker);
    any_regression = any_regression || line.regression;
  }
  if (any_regression) {
    std::printf("\nverdict: REGRESSION (thresholds: makespan %.0f%%, "
                "segment %.0f%%, floor %.1fs)\n",
                100.0 * makespan_threshold, 100.0 * segment_threshold,
                segment_floor);
    return 2;
  }
  std::printf("\nverdict: no regression\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  FlagSet flags(
      "Summarise one run's observability artifacts, or diff two runs and "
      "fail on regression.\n"
      "  smr_inspect summary <run-dir>\n"
      "  smr_inspect diff <baseline-dir> <candidate-dir>");
  flags.define_double("makespan-threshold", 0.05,
                      "diff: tolerated relative growth of the aggregate "
                      "critical path / serve makespan / serve p95 latency");
  flags.define_double("segment-threshold", 0.25,
                      "diff: tolerated relative growth of any one "
                      "critical-path segment");
  flags.define_double("segment-floor", 1.0,
                      "diff: absolute growth (s) below which a segment, "
                      "makespan or p95 latency change is ignored");
  flags.define_double("stall-threshold", 0.25,
                      "diff: tolerated relative growth of any one shard's "
                      "barrier stall");
  flags.define_double("stall-floor", 0.5,
                      "diff: absolute barrier-stall growth (s) below which "
                      "the change is ignored (wall-clock noise guard)");
  flags.define_double("jain-drop", 0.02,
                      "diff: tolerated absolute drop of a fairness report's "
                      "Jain index");
  flags.define_double("envy-growth", 0.05,
                      "diff: tolerated absolute growth of max tenant envy");
  flags.define_double("welfare-drop", 0.05,
                      "diff: tolerated absolute drop of utilitarian/Nash "
                      "welfare");
  flags.define_bool("help", false, "print this help");

  if (!flags.parse(argc, argv)) {
    std::fprintf(stderr, "smr_inspect: %s\n\n%s", flags.error().c_str(),
                 flags.usage("smr_inspect").c_str());
    return 1;
  }
  if (flags.get_bool("help")) {
    std::fputs(flags.usage("smr_inspect").c_str(), stdout);
    return 0;
  }

  const auto& args = flags.positional();
  if (args.empty()) {
    std::fputs(flags.usage("smr_inspect").c_str(), stderr);
    return 1;
  }
  const std::string& command = args[0];
  std::string error;

  if (command == "summary") {
    if (args.size() != 2) return fail("summary takes exactly one run dir");
    RunData run;
    if (!load_run(args[1], run, error)) return fail(error);
    return summarize(run);
  }
  if (command == "diff") {
    if (args.size() != 3) {
      return fail("diff takes a baseline dir and a candidate dir");
    }
    RunData base;
    RunData cand;
    if (!load_run(args[1], base, error)) return fail(error);
    if (!load_run(args[2], cand, error)) return fail(error);
    return diff(base, cand, flags);
  }
  return fail("unknown command '" + command + "' (summary | diff)");
}
