// xnfbench: the end-to-end benchmark harness. One process runs one workload
// as a closed loop (each client sends its next operation only after the
// previous one returned), checks every answer against oracles computed apart
// from the engine, and prints one JSON object as its last line:
//
//   xnfbench --workload co_checkout --seed 1 --seconds 10 --trace 0
//            --work-dir .bench_build/e2ebench/runs/1234
//   {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}
//
// --trace 0 reports the end-to-end metrics; --trace 1 alternates untraced
// and traced slices of the timed phase and reports the per-layer metrics of
// the traced slices plus the tracing overhead. --selftest runs the
// benchmark's own checks on tiny instances. See README.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "generator.h"
#include "tracer.h"
#include "workloads.h"

namespace xnfbench {
namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool selftest = false;
  bool small = false;
  std::string work_dir = ".bench_build/xnfbench-work";
};

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct PhaseResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  double wall_s = 0;
  // Latencies of the completed operations, by window of completion time.
  // Four bytes a sample and no copy of all samples at once, so that the
  // harness adds little to peak_rss_mb however many operations complete.
  std::vector<std::vector<float>> latency_us;
  std::string first_error;
  double peak_rss_mb = 0;  // when memory_ops operations had completed
};

// Peak resident set of this process so far (the kernel's VmHWM).
double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// Runs every client of `w` in its own thread until `seconds` have passed;
// the phase is cut into `windows` equal windows. The peak resident set is
// read when `memory_ops` operations have completed, or at the end if fewer
// did.
PhaseResult RunPhase(Workload* w, double seconds, int windows,
                     int64_t memory_ops = 0) {
  const int n = w->clients();
  struct ClientResult {
    int64_t attempted = 0, failed = 0;
    std::vector<std::vector<float>> latency_us;
    std::string first_error;
  };
  std::vector<ClientResult> results(n);
  std::atomic<int64_t> completed{0};
  std::atomic<double> peak_rss_mb{0};
  const Clock::time_point start = Clock::now();
  const Clock::duration width =
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(seconds / windows));
  const Clock::time_point deadline = start + width * windows;
  auto client = [&](int c) {
    ClientResult& r = results[c];
    r.latency_us.resize(windows);
    while (Clock::now() < deadline) {
      xnf::Status s = w->Prepare(c);
      const Clock::time_point t0 = Clock::now();
      if (s.ok()) {
        Span span(w->tracer(), "op");
        s = w->Op(c);
      }
      const Clock::time_point t1 = Clock::now();
      ++r.attempted;
      if (!s.ok()) {
        ++r.failed;
        if (r.first_error.empty()) r.first_error = s.ToString();
        continue;
      }
      const int k =
          std::min<int>(windows - 1, static_cast<int>((t1 - start) / width));
      r.latency_us[k].push_back(static_cast<float>(
          std::chrono::duration<double, std::micro>(t1 - t0).count()));
      if (completed.fetch_add(1) + 1 == memory_ops) peak_rss_mb = PeakRssMb();
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < n; ++c) threads.emplace_back(client, c);
  client(0);
  for (std::thread& t : threads) t.join();
  PhaseResult out;
  out.wall_s = Seconds(Clock::now() - start);
  out.peak_rss_mb = completed < memory_ops ? PeakRssMb() : peak_rss_mb.load();
  out.latency_us.resize(windows);
  for (ClientResult& r : results) {
    out.attempted += r.attempted;
    out.failed += r.failed;
    for (int k = 0; k < windows; ++k) {
      std::vector<float>& into = out.latency_us[k];
      into.insert(into.end(), r.latency_us[k].begin(), r.latency_us[k].end());
      r.latency_us[k] = {};
    }
    if (out.first_error.empty()) out.first_error = r.first_error;
  }
  return out;
}

// Linear-interpolated percentile of `v` (sorted in place).
template <typename T>
double Percentile(std::vector<T>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  const double pos = p / 100.0 * static_cast<double>(v->size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v->size() - 1);
  return (*v)[lo] + (pos - static_cast<double>(lo)) * ((*v)[hi] - (*v)[lo]);
}

double Median(std::vector<double> v) { return Percentile(&v, 50); }

// Throughput, median and tail latency are taken per window of the timed
// phase and the median window is reported, so a burst of load from outside
// the process that hits a few windows does not move the run's figures.
struct WindowedFigures {
  double ops_per_s = 0;
  double p50_us = 0;
  double tail_us = 0;
  int64_t samples = 0;
  double min_beyond = 0;  // fewest samples beyond the tail in any window
};

WindowedFigures Windowed(PhaseResult* phase, double seconds,
                         double tail_percentile) {
  const double width = seconds / static_cast<double>(phase->latency_us.size());
  std::vector<double> rate, p50, tail;
  WindowedFigures out;
  out.min_beyond = 1e18;
  for (std::vector<float>& v : phase->latency_us) {
    out.samples += static_cast<int64_t>(v.size());
    rate.push_back(static_cast<double>(v.size()) / width);
    p50.push_back(Percentile(&v, 50));
    tail.push_back(Percentile(&v, tail_percentile));
    out.min_beyond =
        std::min(out.min_beyond, static_cast<double>(v.size()) *
                                     (1 - tail_percentile / 100.0));
  }
  out.ops_per_s = Median(rate);
  out.p50_us = Median(p50);
  out.tail_us = Median(tail);
  return out;
}

double DirMb(const std::string& dir) {
  uintmax_t bytes = 0;
  for (const auto& e : fs::recursive_directory_iterator(dir)) {
    if (e.is_regular_file()) bytes += e.file_size();
  }
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintResult(bool correct, int64_t attempted, int64_t failed,
                 const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << metrics[i].name << "\": {\"value\": "
        << JsonNumber(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit
        << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

[[noreturn]] void Fail(const std::string& what, const xnf::Status& status) {
  std::cerr << "xnfbench: " << what << ": " << status.ToString() << "\n";
  std::exit(2);
}

// The workload's own counts (rows out, rows written, CO tuples, navigation
// steps).
struct Counts {
  int64_t rows_out = 0, rows_written = 0, co_tuples = 0, nav_steps = 0;
};

Counts CountsOf(const Workload& w) {
  return {w.counts.rows_out, w.counts.rows_written, w.counts.co_tuples,
          w.counts.nav_steps};
}

// Per-layer metrics of the traced slices of the run: `ops` operations ran
// while the counters summed to `before` moved to `after` and the workload's
// counts moved by `moved`.
std::vector<Metric> LayerMetrics(const Tracer& tracer,
                                 const std::map<std::string, int64_t>& before,
                                 const std::map<std::string, int64_t>& after,
                                 const Counts& moved, double ops,
                                 double ops_ratio, int64_t versions_retained) {
  const std::map<std::string, Tracer::Total> totals = tracer.Totals();
  auto total = [&](const std::string& name) -> Tracer::Total {
    auto it = totals.find(name);
    return it == totals.end() ? Tracer::Total() : it->second;
  };
  auto per_op_us = [&](const std::string& span, bool self) {
    const Tracer::Total t = total(span);
    return (self ? t.self_ns : t.total_ns) / 1e3 / ops;
  };
  auto per_call_us = [&](const std::string& span) {
    const Tracer::Total t = total(span);
    return t.count == 0 ? 0.0 : t.total_ns / 1e3 / static_cast<double>(t.count);
  };
  auto delta = [&](const std::string& name) {
    return static_cast<double>(Delta(before, after, name));
  };
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  const double rows_out = static_cast<double>(moved.rows_out);
  const double rows_written = static_cast<double>(moved.rows_written);
  const double co_tuples = static_cast<double>(moved.co_tuples);
  const double nav_steps = static_cast<double>(moved.nav_steps);
  const double accesses = delta("bufferpool.accesses");
  const double faults = delta("bufferpool.faults");
  const double kernel_in =
      static_cast<double>(DeltaSum(before, after, "kernel.", ".rows_in"));
  const double kernel_kept =
      static_cast<double>(DeltaSum(before, after, "kernel.", ".rows_kept"));
  const double calls = static_cast<double>(tracer.calls_with_child());
  return {
      {"api.statements", total("statement").count / ops, "count"},
      {"api.pre_statement_us", ratio(tracer.pre_child_ns() / 1e3, calls), "us"},
      {"api.post_statement_us", ratio(tracer.post_child_ns() / 1e3, calls),
       "us"},
      {"api.statement_self_us", per_op_us("statement", true), "us"},
      {"sql.parse_us", per_op_us("parse", false), "us"},
      {"qgm.build_us", per_op_us("qgm-build", false), "us"},
      {"qgm.rewrite_us", per_op_us("rewrite", false), "us"},
      {"plan.plan_us", per_op_us("plan", false), "us"},
      {"exec.execute_us", per_op_us("execute", false), "us"},
      {"exec.rows_out", rows_out / ops, "count"},
      {"exec.kernel_rows_in", kernel_in / ops, "count"},
      {"exec.kernel_keep_ratio", ratio(kernel_kept, kernel_in), "ratio"},
      {"exec.rows_written", rows_written / ops, "count"},
      {"storage.bp_accesses", accesses / ops, "count"},
      {"storage.bp_faults", faults / ops, "count"},
      {"storage.bp_evictions", delta("bufferpool.evictions") / ops, "count"},
      {"storage.bp_hit_ratio", accesses > 0 ? 1.0 - faults / accesses : 1.0,
       "ratio"},
      {"storage.column_reads", delta("storage.column.group_reads") / ops,
       "count"},
      {"storage.wal_bytes", delta("wal.bytes") / ops, "B"},
      {"storage.wal_commits", delta("wal.commit_markers") / ops, "count"},
      {"catalog.commit_us", per_call_us("commit"), "us"},
      {"catalog.checkpoints", delta("checkpoint.count"), "count"},
      {"catalog.checkpoint_mb", delta("checkpoint.bytes") / (1024.0 * 1024.0),
       "MB"},
      {"catalog.versions_retained", static_cast<double>(versions_retained),
       "count"},
      {"xnf.evaluate_us", per_op_us("evaluate", false), "us"},
      {"xnf.cache_build_us", per_op_us("build", false), "us"},
      {"xnf.resolve_us", per_op_us("resolve", true), "us"},
      {"xnf.nodes_us", per_op_us("materialize-nodes", true), "us"},
      {"xnf.cse_us", per_op_us("cse-temps", true), "us"},
      {"xnf.edges_us", per_op_us("materialize-edges", true), "us"},
      {"xnf.reachability_us", per_op_us("reachability", true), "us"},
      {"xnf.restrictions_us", per_op_us("restrictions", true), "us"},
      {"xnf.take_us", per_op_us("take", true), "us"},
      {"xnf.derived_queries",
       (delta("xnf.node_queries") + delta("xnf.edge_queries")) / ops, "count"},
      {"xnf.cse_hits", delta("xnf.cse_hits") / ops, "count"},
      {"xnf.reachability_passes", delta("xnf.reachability_passes") / ops,
       "count"},
      {"xnf.kept_ratio", ratio(co_tuples, delta("xnf.rows_produced")),
       "ratio"},
      {"xnf.navigate_ns", ratio(total("walk").total_ns, nav_steps), "ns"},
      {"xnf.path_us", per_op_us("path", false), "us"},
      {"xnf.writethrough_us", per_call_us("writethrough"), "us"},
      {"common.pool_tasks", delta("threadpool.tasks_dispatched") / ops,
       "count"},
      {"common.pool_stolen", delta("threadpool.tasks_stolen") / ops, "count"},
      {"trace.ops_ratio", ops_ratio, "ratio"},
      {"trace.unbalanced_spans", static_cast<double>(tracer.unbalanced()),
       "count"},
  };
}

// Set-up and reopen take 10 to 500 ms here. Each is repeated at least a
// given number of times and for at least kRepeatS seconds, and the median is
// reported, so that a burst of outside load during a few repetitions does
// not move it.
constexpr double kRepeatS = 2.0;

template <typename F>
std::vector<double> Repeat(int min_count, double min_s, F once) {
  std::vector<double> out;
  const Clock::time_point start = Clock::now();
  while (static_cast<int>(out.size()) < min_count ||
         Seconds(Clock::now() - start) < min_s) {
    out.push_back(once());
  }
  return out;
}

int Run(const Args& args) {
  if (MakeWorkload(args.workload, args.seed, args.small) == nullptr) {
    std::cerr << "xnfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const std::string work = args.work_dir + "/" + args.workload;
  fs::remove_all(work);
  fs::create_directories(work);

  // Set-up, repeated (median); the last database stays. Each set-up starts
  // from a fresh workload, whose models hold exactly the generated rows
  // (input generation is not part of setup_s).
  std::unique_ptr<Workload> w;
  std::string dir;
  int setups_done = 0;
  auto setup = [&] {
    if (w != nullptr) {
      w->Close();
      fs::remove_all(dir);
    }
    w = MakeWorkload(args.workload, args.seed, args.small);
    dir = work + "/db" + std::to_string(setups_done++);
    const Clock::time_point t0 = Clock::now();
    xnf::Status s = w->Setup(dir);
    if (!s.ok()) Fail("setup", s);
    return Seconds(Clock::now() - t0);
  };
  const std::vector<double> setup_s =
      Repeat(args.trace ? 1 : 7, args.trace ? 0 : kRepeatS, setup);

  // Checks at quiescence: the models against the database, and no MVCC
  // version retained.
  auto check_quiescent = [&](const std::string& when) {
    w->set_phase("verify " + when);
    xnf::Status v = w->Verify();
    if (!v.ok()) Fail("verify " + when, v);
    xnf::Result<int64_t> retained = w->VersionsRetained();
    if (!retained.ok()) Fail("versions_retained", retained.status());
    if (*retained != 0) {
      w->Mismatch("versions_retained " + when + " = " +
                  std::to_string(*retained));
    }
  };
  auto reopen = [&] {
    w->Close();
    const Clock::time_point t0 = Clock::now();
    xnf::Status s = w->Reopen(dir);
    if (!s.ok()) Fail("reopen", s);
    return Seconds(Clock::now() - t0);
  };

  // Fixed work, before the timed phase so that no figure here depends on
  // throughput: checkpoint (disk_mb), a fixed number of further operations,
  // destroy without a checkpoint, and time the reopen that replays them
  // (recover_s, median of several).
  xnf::Status cp = w->db()->Checkpoint();
  if (!cp.ok()) Fail("checkpoint", cp);
  const double disk_mb = DirMb(dir);
  int64_t further_failed = 0;
  w->set_phase("operations after the checkpoint");
  for (int i = 0; i < w->further_ops(); ++i) {
    if (!w->FurtherOp(i % w->clients()).ok()) ++further_failed;
  }
  const std::vector<double> recover_s =
      Repeat(args.trace ? 1 : 11, args.trace ? 0 : kRepeatS, reopen);
  check_quiescent("after the timed reopen");

  // Timed phase. A traced run alternates untraced and traced slices of about
  // a second, in the order untraced-traced, traced-untraced, ..., so that the
  // host's drift over the run falls on both alike. trace.ops_ratio is the
  // median over pairs of adjacent slices of traced over untraced throughput;
  // every per-layer figure comes from the traced slices.
  w->set_phase("timed phase");
  PhaseResult main_phase;
  std::vector<Metric> layer;
  if (!args.trace) {
    main_phase =
        RunPhase(w.get(), args.seconds, w->windows(), w->memory_ops());
  } else {
    const int pairs = std::max(1, static_cast<int>(args.seconds / 2));
    const double slice_s = args.seconds / (2.0 * pairs);
    Tracer tracer;
    std::map<std::string, int64_t> before, after;  // summed over slices
    Counts moved;
    auto traced_slice = [&] {
      for (const auto& [name, v] : CounterValues(*w->db()->metrics())) {
        before[name] += v;
      }
      const Counts c0 = CountsOf(*w);
      w->set_tracer(&tracer);
      PhaseResult p = RunPhase(w.get(), slice_s, 1);
      w->set_tracer(nullptr);
      const Counts c1 = CountsOf(*w);
      for (const auto& [name, v] : CounterValues(*w->db()->metrics())) {
        after[name] += v;
      }
      moved.rows_out += c1.rows_out - c0.rows_out;
      moved.rows_written += c1.rows_written - c0.rows_written;
      moved.co_tuples += c1.co_tuples - c0.co_tuples;
      moved.nav_steps += c1.nav_steps - c0.nav_steps;
      return p;
    };
    auto rate = [](const PhaseResult& p) {
      return static_cast<double>(p.attempted - p.failed) / p.wall_s;
    };
    std::vector<double> ratios;
    int64_t untraced_attempted = 0, untraced_failed = 0;
    std::string untraced_error;
    for (int i = 0; i < pairs; ++i) {
      PhaseResult untraced, traced;
      if (i % 2 == 0) {
        untraced = RunPhase(w.get(), slice_s, 1);
        traced = traced_slice();
      } else {
        traced = traced_slice();
        untraced = RunPhase(w.get(), slice_s, 1);
      }
      if (rate(untraced) > 0) ratios.push_back(rate(traced) / rate(untraced));
      untraced_attempted += untraced.attempted;
      untraced_failed += untraced.failed;
      if (untraced_error.empty()) untraced_error = untraced.first_error;
      main_phase.attempted += traced.attempted;
      main_phase.failed += traced.failed;
      if (main_phase.first_error.empty()) {
        main_phase.first_error = traced.first_error;
      }
    }
    std::cerr << "xnfbench: traced over untraced throughput per pair:";
    for (double r : ratios) std::cerr << " " << r;
    std::cerr << "\n";
    xnf::Result<int64_t> retained = w->VersionsRetained();
    if (!retained.ok()) Fail("versions_retained", retained.status());
    const double ops = std::max<double>(1, static_cast<double>(
        main_phase.attempted - main_phase.failed));
    layer = LayerMetrics(tracer, before, after, moved, ops,
                         ratios.empty() ? 0.0 : Median(ratios), *retained);
    main_phase.attempted += untraced_attempted;
    main_phase.failed += untraced_failed;
    if (main_phase.first_error.empty()) main_phase.first_error = untraced_error;
  }
  if (main_phase.failed > 0) {
    std::cerr << "xnfbench: " << main_phase.failed << " of "
              << main_phase.attempted
              << " operations failed; first: " << main_phase.first_error
              << "\n";
  }
  check_quiescent("after the timed phase");

  // The timed phase's writes survive a checkpoint and a crash. (The
  // checkpoint first: see README, "Program faults", on CO edits made inside
  // transactions.)
  cp = w->db()->Checkpoint();
  if (!cp.ok()) Fail("checkpoint", cp);
  reopen();
  check_quiescent("after the final reopen");
  w->Close();
  fs::remove_all(work);

  const int64_t attempted = main_phase.attempted + w->further_ops();
  const int64_t failed = main_phase.failed + further_failed;
  if (!w->correct()) {
    std::cerr << "xnfbench: WRONG ANSWER: " << w->first_mismatch() << "\n";
  }

  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = layer;
  } else {
    const WindowedFigures fig =
        Windowed(&main_phase, args.seconds, w->tail_percentile());
    std::cerr << "xnfbench: " << args.workload << " seed " << args.seed
              << ": " << fig.samples << " ops in " << main_phase.wall_s
              << " s, p" << w->tail_percentile() << " leaves at least "
              << fig.min_beyond << " samples beyond in each of "
              << w->windows() << " windows, " << w->rows()
              << " rows loaded\n";
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"ops_per_s", fig.ops_per_s, "1/s"},
        {"op_p50_us", fig.p50_us, "us"},
        {"op_tail_us", fig.tail_us, "us"},
        {"peak_rss_mb", main_phase.peak_rss_mb, "MB"},
        {"recover_s", Median(recover_s), "s"},
        {"disk_mb", disk_mb, "MB"},
    };
  }
  PrintResult(w->correct(), attempted, failed, metrics);
  return w->correct() ? 0 : 1;
}

// --- self-tests ---------------------------------------------------------------

int failures = 0;

void Check(bool ok, const std::string& what) {
  std::cerr << (ok ? "  ok    " : "  FAIL  ") << what << "\n";
  if (!ok) ++failures;
}

bool SameWorkingSet(const WorkingSet& a, const WorkingSet& b) {
  return a.roots == b.roots && a.asms == b.asms && a.docs == b.docs &&
         a.top == b.top && a.sub == b.sub && a.doc_links == b.doc_links &&
         a.weight_sum == b.weight_sum && a.version_sum == b.version_sum &&
         a.pages_sum == b.pages_sum && a.qty_sum == b.qty_sum &&
         a.path_docs == b.path_docs && a.reachable == b.reachable;
}

int SelfTest(const Args& args) {
  // 1. The generator's breadth-first expectations match a brute-force
  //    fixpoint recount, and the working sets are non-trivial.
  for (uint64_t seed : {1, 2, 3}) {
    CadShape shape;
    shape.configs = 8;
    CadData data = GenerateCad(shape, seed);
    bool same = true, nontrivial = true;
    for (int64_t cfg = 0; cfg < shape.configs; ++cfg) {
      same = same && SameWorkingSet(data.expected[cfg],
                                    BruteForceWorkingSet(data, cfg));
      const WorkingSet& ws = data.expected[cfg];
      nontrivial = nontrivial && ws.asms > 0 && ws.sub > ws.asms / 2 &&
                   ws.docs > 0 && ws.docs < shape.docs_per_config;
    }
    Check(same, "seed " + std::to_string(seed) +
                    ": BFS working sets equal the brute-force recount");
    Check(nontrivial, "seed " + std::to_string(seed) +
                          ": working sets drop unreachable documents");
  }
  {
    FactShape shape;
    shape.facts = 3000;
    FactData data = GenerateFacts(shape, 5, 4);
    bool same = true;
    for (const Report& r : data.reports) {
      int64_t count = 0, qty = 0, co = 0;
      for (const Fact& f : data.facts) {
        if (f.price < r.price_below && f.flag == 1) {
          ++count;
          qty += f.qty;
        }
        for (const Product& p : data.products) {
          if (p.pid == f.prod && p.cat == r.co_cat && f.cfg >= r.co_cfg_lo &&
              f.cfg < r.co_cfg_hi) {
            ++co;
          }
        }
      }
      same = same && count == r.scan_count && qty == r.scan_qty &&
             co == r.co_facts;
    }
    Check(same, "report expectations equal a brute-force recount");
  }

  // 2. Every workload passes on a tiny instance, and fails once one
  //    expectation of its oracle is falsified.
  for (const std::string& name : WorkloadNames()) {
    const std::string work = args.work_dir + "/selftest-" + name;
    fs::remove_all(work);
    fs::create_directories(work);
    std::unique_ptr<Workload> w = MakeWorkload(name, 7, true);
    xnf::Status s = w->Setup(work + "/db");
    Check(s.ok(), name + ": setup (" + s.ToString() + ")");
    if (!s.ok()) continue;
    for (int i = 0; i < 6 && s.ok(); ++i) {
      s = w->Prepare(i % w->clients());
      if (s.ok()) s = w->Op(i % w->clients());
    }
    if (s.ok()) s = w->Verify();
    Check(s.ok() && w->correct(),
          name + ": correct oracle passes (" + s.ToString() + " " +
              w->first_mismatch() + ")");
    w->CorruptOracle();
    for (int i = 0; i < 6 && s.ok(); ++i) {
      s = w->Prepare(i % w->clients());
      if (s.ok()) s = w->Op(i % w->clients());
    }
    if (s.ok()) s = w->Verify();
    Check(s.ok() && !w->correct(),
          name + ": falsified oracle fails (" + w->first_mismatch() + ")");
    w->Close();
    fs::remove_all(work);
  }

  // 3. Traced self times partition the enclosing operation span, and no
  //    span is left unbalanced or dropped.
  {
    const std::string work = args.work_dir + "/selftest-trace";
    fs::remove_all(work);
    fs::create_directories(work);
    std::unique_ptr<Workload> w = MakeWorkload("co_checkout", 7, true);
    xnf::Status s = w->Setup(work + "/db");
    Tracer tracer;
    w->set_tracer(&tracer);
    for (int i = 0; i < 20 && s.ok(); ++i) {
      Span span(&tracer, "op");
      s = w->Op(0);
    }
    w->set_tracer(nullptr);
    Check(s.ok(), "traced operations run (" + s.ToString() + ")");
    const auto totals = tracer.Totals();
    uint64_t self_sum = 0;
    for (const auto& [name, t] : totals) self_sum += t.self_ns;
    const uint64_t op_ns = totals.count("op") ? totals.at("op").total_ns : 0;
    const double gap =
        op_ns > 0 ? std::fabs(static_cast<double>(self_sum) -
                              static_cast<double>(op_ns)) / op_ns
                  : 1.0;
    Check(op_ns > 0 && gap < 0.03,
          "self times sum to the op span within 3% (gap " +
              std::to_string(gap * 100) + "%)");
    uint64_t phases = 0;
    for (const char* phase :
         {"resolve", "materialize-nodes", "cse-temps", "materialize-edges",
          "reachability", "restrictions", "take"}) {
      if (totals.count(phase)) phases += totals.at(phase).count;
    }
    Check(phases >= 20 * 5, "XNF phase spans recorded for every extraction");
    Check(tracer.unbalanced() == 0, "no span unbalanced or dropped");
    w->Close();
    fs::remove_all(work);
  }

  std::cerr << (failures == 0 ? "selftest passed\n" : "selftest FAILED\n");
  return failures == 0 ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string value;
    const size_t eq = a.find('=');
    if (eq != std::string::npos) {
      value = a.substr(eq + 1);
      a = a.substr(0, eq);
    } else if (a != "--selftest" && a != "--small") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (a == "--workload") {
      args->workload = value;
    } else if (a == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (a == "--trace") {
      args->trace = value == "1";
    } else if (a == "--work-dir") {
      args->work_dir = value;
    } else if (a == "--selftest") {
      args->selftest = true;
    } else if (a == "--small") {
      args->small = true;
    } else {
      return false;
    }
  }
  return args->selftest || (!args->workload.empty() && args->seconds > 0);
}

}  // namespace
}  // namespace xnfbench

int main(int argc, char** argv) {
  xnfbench::Args args;
  if (!xnfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: xnfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>] [--small]\n"
                 "       xnfbench --selftest [--work-dir <dir>]\n";
    return 2;
  }
  return args.selftest ? xnfbench::SelfTest(args) : xnfbench::Run(args);
}
