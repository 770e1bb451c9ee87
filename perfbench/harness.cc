// The dprof benchmark harness: runs one benchmark workload in-process and
// prints its metrics.
//
//   perfbench_harness --workload NAME --seed N --seconds S --trace 0|1
//                     [--trace-out FILE] [--commit SHA]
//
// A run drives the simulator through the same public calls RunScenario
// makes (ScenarioRegistry factory -> Workload::Install -> Engine ->
// DProfSession phases -> views -> ScenarioReportToJson), or Machine::RunFor
// when no profiler is attached, so the harness can time each layer from
// outside. It repeats the workload until --seconds have passed and reports
// medians. Every run is checked (engine status, hierarchy identities, the
// Table 6.1 headline, and a deterministic fingerprint that must match every
// other run of the set and one run at the other host-thread count).
//
// With --trace 1 one extra run records spans around each of those calls and
// the metrics printed are the per-layer ones, derived from the spans' self
// times and the layers' own counters. Spans are kept in memory and written
// to --trace-out as Chrome trace-event JSON (open it in Perfetto).
//
// The last line of standard output is one JSON object:
//   {"correct": bool, "attempted": N, "failed": N, "metrics": {name: {value, unit}}}

#include <malloc.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/cli/scenario_registry.h"
#include "src/dprof/miss_classifier.h"
#include "src/machine/engine.h"
#include "src/util/json_writer.h"

namespace {

using dprof::DataProfile;
using dprof::DataProfileRow;
using dprof::DProfSession;
using dprof::Engine;
using dprof::EngineConfig;
using dprof::EnginePhaseStats;
using dprof::JsonWriter;
using dprof::RunSpec;
using dprof::SamplingController;
using dprof::SamplingReport;
using dprof::ScenarioReport;
using dprof::ScenarioRig;

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

// Paper Table 6.1: size-1024 holds 45.40% of memcached's L1 misses.
constexpr const char* kPaperType = "size-1024";
constexpr double kPaperMissPct = 45.40;

struct WorkloadDef {
  const char* name;
  const char* scenario;
  int threads;              // host engine threads of the timed runs
  bool profiled;            // full two-phase DProf session vs Machine::RunFor
  bool sampled;             // RunSpec::sampled
  uint64_t collect_cycles;  // 0 keeps the scenario default
  bool expect_paper_top;    // size-1024 must top the profile (Table 6.1)
};

// Why each workload is here: perfbench/README.md.
constexpr WorkloadDef kWorkloads[] = {
    {"memcached_profile", "memcached", 2, true, false, 0, true},
    {"apache_unprofiled", "apache", 1, false, false, 200'000'000, false},
    {"memcached_sampled", "memcached", 2, true, true, 800'000'000, true},
};

// ---------------------------------------------------------------------------
// Spans: name, start, end, parent and run id, kept in memory.
// ---------------------------------------------------------------------------

class Tracer {
 public:
  void BeginRun() { ++run_id_; }

  int Open(const char* name) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({name, Clock::now(), {}, parent, run_id_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int index) {
    spans_[index].end = Clock::now();
    open_.pop_back();
  }

  // Sum over the current run's spans called `name` of their self time: the
  // span's duration minus the part its child spans cover.
  double SelfSeconds(const std::string& name) const {
    double total = 0.0;
    for (size_t i = 0; i < spans_.size(); ++i) {
      if (spans_[i].run == run_id_ && spans_[i].name == name) {
        total += SelfSecondsOf(static_cast<int>(i));
      }
    }
    return total;
  }

  bool WriteChromeTrace(const std::string& path) const {
    const Clock::time_point origin = spans_.empty() ? Clock::now() : spans_.front().start;
    auto us = [origin](Clock::time_point t) {
      return std::chrono::duration<double, std::micro>(t - origin).count();
    };
    JsonWriter json;
    json.BeginObject();
    json.Key("displayTimeUnit").String("ms");
    json.Key("traceEvents").BeginArray();
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& span = spans_[i];
      json.BeginObject();
      json.Key("name").String(span.name);
      json.Key("cat").String("perfbench");
      json.Key("ph").String("X");
      json.Key("ts").Number(us(span.start));
      json.Key("dur").Number(us(span.end) - us(span.start));
      json.Key("pid").Int(1);
      json.Key("tid").Int(span.run);
      json.Key("args").BeginObject();
      json.Key("run_id").Int(span.run);
      json.Key("parent").String(span.parent < 0 ? "" : spans_[span.parent].name);
      json.Key("self_us").Number(SelfSecondsOf(static_cast<int>(i)) * 1e6);
      json.EndObject();
      json.EndObject();
    }
    json.EndArray();
    json.EndObject();
    std::ofstream out(path);
    out << json.str() << "\n";
    return static_cast<bool>(out);
  }

 private:
  struct Span {
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
    int parent;
    int run;
  };

  double SelfSecondsOf(int index) const {
    double self = SecondsBetween(spans_[index].start, spans_[index].end);
    for (const Span& child : spans_) {
      if (child.parent == index) {
        self -= SecondsBetween(child.start, child.end);
      }
    }
    return self;
  }

  std::vector<Span> spans_;
  std::vector<int> open_;
  int run_id_ = 0;
};

// Records one span when `tracer` is non-null; untraced runs pass null and
// pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name)
      : tracer_(tracer), index_(tracer != nullptr ? tracer->Open(name) : -1) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

// ---------------------------------------------------------------------------
// One run of a workload.
// ---------------------------------------------------------------------------

RunSpec SpecFor(const WorkloadDef& w, uint64_t seed, int threads) {
  RunSpec spec;
  spec.topology = "paper-amd";
  spec.seed = seed;
  spec.threads = threads;
  spec.sampled = w.sampled;
  spec.collect_cycles = w.collect_cycles;
  return spec;
}

// The rig plus the engine driving it: everything setup_s covers.
// The engine is declared last so it goes first, as in RunScenario.
struct Rig {
  std::unique_ptr<ScenarioRig> scenario;
  std::unique_ptr<Engine> engine;
};

// Factory + Install + Engine construction, with the EngineConfig RunScenario
// derives from the same RunSpec.
Rig SetUp(const WorkloadDef& w, const RunSpec& spec, Tracer* tracer) {
  ScopedSpan setup(tracer, "setup");
  Rig rig;
  {
    ScopedSpan span(tracer, "cli.rig_build");
    rig.scenario = dprof::ScenarioRegistry::Default().Find(w.scenario)->factory(spec);
  }
  {
    ScopedSpan span(tracer, "workload.install");
    rig.scenario->workload->Install(*rig.scenario->machine);
  }
  {
    ScopedSpan span(tracer, "machine.engine_init");
    EngineConfig config;
    config.threads = spec.threads;
    config.allow_record_elision = spec.record_elision;
    config.socket_aware_apply = spec.socket_aware_apply;
    config.apply_work_stealing = spec.work_stealing;
    config.sampling.enabled = spec.sampled;
    rig.engine = std::make_unique<Engine>(rig.scenario->machine.get(), config);
    rig.scenario->machine->SetExecutor(rig.engine.get());
  }
  return rig;
}

struct RunResult {
  double run_s = 0.0;
  double setup_s = 0.0;
  double loop_s = 0.0;  // host time inside the simulation run loop
  ScenarioReport report;
  std::string document;  // ScenarioReportToJson(report)
  EnginePhaseStats phases;
  uint64_t ff_accesses = 0;
  double sampling_scale = 1.0;
  uint64_t ibs_samples = 0;
  uint64_t watchpoint_hits = 0;
  uint64_t typed_samples = 0;
};

// The sampled-mode block of the report, as RunScenario assembles it.
SamplingReport BuildSamplingReport(const SamplingController& sc, const DProfSession& session,
                                   const DataProfile& profile,
                                   const dprof::HierarchyTotals& totals) {
  SamplingReport s;
  s.enabled = true;
  s.period_cycles = sc.config().period_cycles;
  s.window_cycles = sc.config().window_cycles;
  s.seed = sc.config().seed;
  s.detailed_epochs = sc.detailed_epochs();
  s.ff_epochs = sc.ff_epochs();
  s.measured_accesses = sc.measured_accesses();
  s.ff_accesses = sc.ff_accesses();
  s.scale = sc.Scale();
  s.confidence = 0.99;
  s.l1_miss_rate = SamplingController::WilsonCI(totals.l1_misses, totals.accesses,
                                                SamplingController::kMissRateFloorPct);
  const uint64_t miss_samples = session.samples().l1_miss_samples();
  const auto by_type = session.samples().AggregateByType();
  for (const DataProfileRow& row : profile.rows()) {
    const auto it = by_type.find(row.type);
    const uint64_t k = it != by_type.end() ? it->second.l1_misses : 0;
    const dprof::SamplingInterval ci =
        SamplingController::WilsonCI(k, miss_samples, SamplingController::kTypeShareFloorPct);
    s.types.push_back({row.name, row.miss_pct, ci.lo, ci.hi, k});
  }
  return s;
}

// Profile, classification, working set and data flow: the views RunScenario
// builds after the two collection phases, into the report it returns.
void BuildViews(const DProfSession& session, const ScenarioRig& rig, const Engine& engine,
                ScenarioReport* report) {
  report->access_samples = session.samples().total_samples();
  const DataProfile profile = session.BuildDataProfile();
  for (const DataProfileRow& row : profile.rows()) {
    report->profile.push_back({row.name, row.miss_pct, row.working_set_bytes, row.bounce,
                               row.samples, row.avg_miss_latency});
  }
  report->profile_table = profile.ToTable(10);
  if (engine.sampler() != nullptr) {
    report->sampling =
        BuildSamplingReport(*engine.sampler(), session, profile, report->hierarchy);
  }
  const std::vector<dprof::MissClassRow> miss_rows = session.ClassifyMisses();
  report->miss_class_table = dprof::MissClassifier::ToTable(miss_rows);
  report->miss_class_json = dprof::MissClassifier::ToJson(miss_rows);
  report->working_set_json = session.BuildWorkingSet().ToJson();
  const std::vector<dprof::TypeId> top = profile.TopTypes(1);
  if (!top.empty() && !session.histories(top[0]).empty()) {
    report->top_type = rig.registry->Name(top[0]);
    report->data_flow_json = session.BuildDataFlow(top[0]).ToJson();
  }
}

// The report fields every run fills, read after the run loop.
void FillRunReport(const WorkloadDef& w, const ScenarioRig& rig, const Engine& engine,
                   ScenarioReport* report) {
  report->scenario = w.scenario;
  report->cores = rig.machine->num_cores();
  report->num_sockets = rig.machine->hierarchy().num_sockets();
  report->collect_cycles = rig.collect_cycles;
  report->hierarchy = rig.machine->hierarchy().Totals();
  report->requests = rig.workload->CompletedRequests();
  report->throughput_rps = dprof::ThroughputRps(report->requests, rig.machine->MaxClock());
  report->status = engine.status();
  report->audits_run = engine.audits_run();
  if (engine.sampler() != nullptr) {
    const SamplingController& sc = *engine.sampler();
    report->sampling_violations = sc.violations();
    report->sampling_window_widened = sc.widened();
    report->sampling_exact_fallback = sc.exact_fallback();
    report->degraded = sc.violations() > 0;
  }
}

RunResult RunOnce(const WorkloadDef& w, uint64_t seed, int threads, Tracer* tracer) {
  const RunSpec spec = SpecFor(w, seed, threads);
  RunResult result;
  const Clock::time_point start = Clock::now();
  {
    ScopedSpan run(tracer, "run");
    Rig rig = SetUp(w, spec, tracer);
    result.setup_s = SecondsBetween(start, Clock::now());
    ScenarioRig& scenario = *rig.scenario;
    Engine& engine = *rig.engine;
    // Declared after the rig, so the session unhooks itself from the machine
    // before the machine goes.
    std::unique_ptr<DProfSession> session;
    if (w.profiled) {
      ScopedSpan span(tracer, "dprof.attach");
      session = std::make_unique<DProfSession>(scenario.machine.get(), scenario.allocator.get(),
                                               scenario.options);
    }
    const Clock::time_point loop_start = Clock::now();
    if (session != nullptr) {
      {
        ScopedSpan span(tracer, "dprof.collect_samples");
        session->CollectAccessSamples(scenario.collect_cycles);
      }
      // An engine that raised an error refuses further epochs; RunScenario
      // skips phase 2 then too.
      if (engine.status().ok()) {
        ScopedSpan span(tracer, "dprof.collect_histories");
        session->CollectHistoriesForTopTypes(scenario.top_types, scenario.history_sets);
      }
    } else {
      ScopedSpan span(tracer, "machine.run_for");
      scenario.machine->RunFor(scenario.collect_cycles);
    }
    result.loop_s = SecondsBetween(loop_start, Clock::now());
    FillRunReport(w, scenario, engine, &result.report);
    if (session != nullptr) {
      ScopedSpan span(tracer, "dprof.views");
      BuildViews(*session, scenario, engine, &result.report);
    }
    {
      ScopedSpan span(tracer, "cli.report_json");
      result.document = dprof::ScenarioReportToJson(result.report);
    }
    result.run_s = SecondsBetween(start, Clock::now());

    result.phases = engine.phase_stats();
    if (engine.sampler() != nullptr) {
      result.ff_accesses = engine.sampler()->ff_accesses();
      result.sampling_scale = engine.sampler()->Scale();
    }
    if (session != nullptr) {
      result.ibs_samples = session->ibs().samples_taken();
      result.watchpoint_hits = session->debug_registers().hits();
      result.typed_samples =
          session->samples().total_samples() - session->samples().unresolved_samples();
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Correctness checks.
// ---------------------------------------------------------------------------

// The deterministic part of a report: hierarchy totals, requests, the top-5
// profile rows and the sampling block. Identical for every host thread count.
std::string Fingerprint(const ScenarioReport& r) {
  const dprof::HierarchyTotals& h = r.hierarchy;
  JsonWriter json;
  json.BeginObject();
  json.Key("requests").UInt(r.requests);
  json.Key("hierarchy").BeginArray();
  for (const uint64_t v : {h.accesses, h.l1_hits, h.l1_misses, h.served[0], h.served[1],
                           h.served[2], h.served[3], h.served[4], h.invalidation_misses,
                           h.tag_reclaims, h.back_invalidations, h.remote_fills,
                           h.cross_socket_back_invalidations}) {
    json.UInt(v);
  }
  json.EndArray();
  json.Key("profile").BeginArray();
  for (size_t i = 0; i < std::min<size_t>(r.profile.size(), 5); ++i) {
    const dprof::ScenarioProfileRow& row = r.profile[i];
    json.BeginArray().String(row.type).Number(row.miss_pct).UInt(row.samples).Bool(row.bounce);
    json.Number(row.working_set_bytes).Number(row.avg_miss_latency).EndArray();
  }
  json.EndArray();
  if (r.sampling.enabled) {
    const SamplingReport& s = r.sampling;
    json.Key("sampling").BeginArray();
    json.UInt(s.detailed_epochs).UInt(s.ff_epochs).UInt(s.measured_accesses).UInt(s.ff_accesses);
    json.Number(s.scale).Number(s.l1_miss_rate.estimate);
    for (const SamplingReport::TypeInterval& t : s.types) {
      json.String(t.type).Number(t.miss_pct).UInt(t.miss_samples);
    }
    json.EndArray();
  }
  json.EndObject();
  return json.str();
}

// Failures of one run; empty when the run is correct.
std::vector<std::string> CheckRun(const WorkloadDef& w, const ScenarioReport& r,
                                  const std::string& reference_fingerprint) {
  std::vector<std::string> failures;
  if (!r.status.ok()) {
    failures.push_back("engine status: " + r.status.message());
  }
  const dprof::HierarchyTotals& h = r.hierarchy;
  if (h.l1_hits + h.l1_misses != h.accesses) {
    failures.push_back("l1_hits + l1_misses != accesses");
  }
  uint64_t served = 0;
  for (const uint64_t s : h.served) served += s;
  if (served != h.accesses) {
    failures.push_back("sum of served != accesses");
  }
  if (h.accesses == 0 || r.requests == 0) {
    failures.push_back("the run simulated no work");
  }
  if (w.expect_paper_top && (r.profile.empty() || r.profile[0].type != kPaperType)) {
    failures.push_back(std::string("top profiled type is ") +
                       (r.profile.empty() ? "missing" : r.profile[0].type) + ", not " +
                       kPaperType);
  }
  if (!reference_fingerprint.empty() && Fingerprint(r) != reference_fingerprint) {
    failures.push_back("fingerprint differs from the set's first run");
  }
  return failures;
}

// |size-1024 share of L1 misses - paper Table 6.1|, in percentage points;
// 0 when the run built no profile.
double PaperErrorPts(const ScenarioReport& r) {
  for (const dprof::ScenarioProfileRow& row : r.profile) {
    if (row.type == kPaperType) return std::fabs(row.miss_pct - kPaperMissPct);
  }
  return r.profile.empty() ? 0.0 : kPaperMissPct;
}

// ---------------------------------------------------------------------------
// Main.
// ---------------------------------------------------------------------------

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Peak resident memory of one run: the heap is trimmed and the kernel's
// high-water mark (VmHWM) reset before the run, and the mark read after it.
void ResetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  return 0.0;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

// The per-layer metrics of one traced run.
std::vector<Metric> LayerMetrics(const RunResult& r, const Tracer& tracer,
                                 double untraced_run_s) {
  const dprof::HierarchyTotals& h = r.report.hierarchy;
  const EnginePhaseStats& p = r.phases;
  const double accesses = static_cast<double>(h.accesses);
  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  return {
      {"cli.rig_build_s", tracer.SelfSeconds("cli.rig_build"), "s"},
      {"cli.report_json_s", tracer.SelfSeconds("cli.report_json"), "s"},
      {"workload.install_s", tracer.SelfSeconds("workload.install"), "s"},
      {"workload.requests", static_cast<double>(r.report.requests), "count"},
      {"workload.sim_krps", r.report.throughput_rps / 1e3, "kreq/s"},
      {"machine.engine_init_s", tracer.SelfSeconds("machine.engine_init"), "s"},
      {"machine.run_for_s", tracer.SelfSeconds("machine.run_for"), "s"},
      {"machine.simulate_s", p.simulate_seconds, "s"},
      {"machine.apply_s", p.apply_seconds, "s"},
      {"machine.commit_s", p.commit_seconds, "s"},
      {"machine.deliver_s", p.deliver_seconds, "s"},
      {"machine.epochs", static_cast<double>(p.epochs), "count"},
      {"machine.elided_epochs", static_cast<double>(p.elided_epochs), "count"},
      {"machine.ff_epochs", static_cast<double>(p.ff_epochs), "count"},
      {"machine.us_per_epoch", per(r.loop_s * 1e6, p.epochs), "us"},
      {"machine.ff_accesses", static_cast<double>(r.ff_accesses), "count"},
      {"machine.sampling_scale", r.sampling_scale, "x"},
      {"sim.accesses", accesses, "count"},
      {"sim.l1_miss_pct", per(100.0 * h.l1_misses, accesses), "%"},
      {"sim.served_l2", static_cast<double>(h.served[1]), "count"},
      {"sim.served_l3", static_cast<double>(h.served[2]), "count"},
      {"sim.served_foreign", static_cast<double>(h.served[3]), "count"},
      {"sim.served_dram", static_cast<double>(h.served[4]), "count"},
      {"sim.invalidation_misses", static_cast<double>(h.invalidation_misses), "count"},
      {"sim.tag_reclaims", static_cast<double>(h.tag_reclaims), "count"},
      {"sim.back_invalidations", static_cast<double>(h.back_invalidations), "count"},
      {"sim.remote_fills", static_cast<double>(h.remote_fills), "count"},
      {"sim.cross_socket_back_invalidations",
       static_cast<double>(h.cross_socket_back_invalidations), "count"},
      {"sim.apply_ns_per_access", per(p.apply_seconds * 1e9, accesses), "ns"},
      {"dprof.attach_s", tracer.SelfSeconds("dprof.attach"), "s"},
      {"dprof.collect_samples_s", tracer.SelfSeconds("dprof.collect_samples"), "s"},
      {"dprof.collect_histories_s", tracer.SelfSeconds("dprof.collect_histories"), "s"},
      {"dprof.views_s", tracer.SelfSeconds("dprof.views"), "s"},
      {"dprof.access_samples", static_cast<double>(r.report.access_samples), "count"},
      {"dprof.typed_sample_pct", per(100.0 * r.typed_samples, r.ibs_samples), "%"},
      {"dprof.paper_err_pts", PaperErrorPts(r.report), "pts"},
      {"pmu.ibs_samples", static_cast<double>(r.ibs_samples), "count"},
      {"pmu.watchpoint_hits", static_cast<double>(r.watchpoint_hits), "count"},
      {"harness.self_s", tracer.SelfSeconds("run") + tracer.SelfSeconds("setup"), "s"},
      {"trace.overhead_s", r.run_s - untraced_run_s, "s"},
  };
}

struct Args {
  const WorkloadDef* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
};

[[noreturn]] void Usage(const std::string& error) {
  std::fprintf(stderr, "perfbench_harness: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: perfbench_harness --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE] [--commit SHA]\nworkloads:");
  for (const WorkloadDef& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(flag + " needs a value");
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (const WorkloadDef& w : kWorkloads) {
        if (value == w.name) args.workload = &w;
      }
      if (args.workload == nullptr) Usage("unknown workload '" + value + "'");
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) Usage("--seed must be an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args.seconds > 0.0)) Usage("--seconds must be a positive number");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") Usage("--trace must be 0 or 1");
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Usage("unknown flag '" + flag + "'");
    }
  }
  if (args.workload == nullptr) Usage("--workload is required");
  return args;
}

// Set-ups timed apart from each timed run, so setup_s is a median of many
// even for workloads that fit only a few runs into --seconds.
constexpr int kSetupsPerRun = 8;

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const WorkloadDef& w = *args.workload;

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d threads=%d\n", w.name,
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0,
              w.threads);
  {
    JsonWriter context;
    context.BeginObject();
    context.Key("nproc").Int(static_cast<int>(std::thread::hardware_concurrency()));
    context.Key("compiler").String(std::string("gcc ") + __VERSION__);
    context.Key("build_type").String(PERFBENCH_BUILD_TYPE);
    context.Key("commit").String(args.commit);
    context.EndObject();
    std::printf("context %s\n", context.str().c_str());
  }

  int attempted = 0;
  int failed = 0;
  std::string reference;
  auto check = [&](const char* label, const ScenarioReport& report,
                   std::vector<std::string> failures = {}) {
    ++attempted;
    for (std::string& f : CheckRun(w, report, reference)) failures.push_back(std::move(f));
    if (reference.empty()) reference = Fingerprint(report);
    if (!failures.empty()) ++failed;
    for (const std::string& f : failures) std::printf("FAIL %s: %s\n", label, f.c_str());
  };

  // The same workload at the other host-thread count (1 <-> 2) must commit
  // the same simulation. Profiled workloads take this run through
  // RunScenario itself, so the harness is also checked against `dprof run`.
  // It runs first and so also warms the process up for the timed runs.
  const int other_threads = w.threads == 1 ? 2 : 1;
  std::string other_document;
  if (w.profiled) {
    const ScenarioReport other = dprof::RunScenario(
        dprof::ScenarioRegistry::Default(), w.scenario, SpecFor(w, args.seed, other_threads));
    other_document = dprof::ScenarioReportToJson(other);
    check("RunScenario at the other thread count", other);
  } else {
    check("run at the other thread count", RunOnce(w, args.seed, other_threads, nullptr).report);
  }

  // Set-ups timed on their own, a few before each timed run, so setup_s is a
  // median of many spread over the whole measuring window. Each starts from a
  // trimmed heap, as set-up in a fresh `dprof run` process does.
  std::vector<double> setup_samples;
  auto time_setups = [&] {
    for (int i = 0; i < kSetupsPerRun; ++i) {
      ResetPeakRss();
      const Clock::time_point start = Clock::now();
      Rig rig = SetUp(w, SpecFor(w, args.seed, w.threads), nullptr);
      setup_samples.push_back(SecondsBetween(start, Clock::now()));
    }
  };

  std::vector<double> run_samples;
  std::vector<double> rate_samples;
  std::vector<double> rss_samples;
  double paper_err = 0.0;
  const Clock::time_point measure_start = Clock::now();
  // Runs repeat while another one of median length still fits in --seconds.
  while (run_samples.empty() ||
         SecondsBetween(measure_start, Clock::now()) + Median(run_samples) <= args.seconds) {
    time_setups();
    ResetPeakRss();
    const RunResult r = RunOnce(w, args.seed, w.threads, nullptr);
    rss_samples.push_back(PeakRssMb());
    const double accesses =
        static_cast<double>(r.report.hierarchy.accesses) + static_cast<double>(r.ff_accesses);
    run_samples.push_back(r.run_s);
    setup_samples.push_back(r.setup_s);
    rate_samples.push_back(accesses / r.loop_s / 1e6);
    std::printf("run %zu: run_s=%.4f setup_s=%.4f loop_s=%.4f accesses=%.0f peak_rss_mb=%.2f\n",
                run_samples.size(), r.run_s, r.setup_s, r.loop_s, accesses, rss_samples.back());
    std::vector<std::string> failures;
    if (w.profiled && r.document != other_document) {
      failures.push_back("report document differs from RunScenario's");
    }
    check("timed run", r.report, std::move(failures));
    paper_err = PaperErrorPts(r.report);
  }

  std::vector<Metric> metrics;
  if (!args.trace) {
    metrics = {
        {"run_s", Median(run_samples), "s"},
        {"sim_maccess_per_s", Median(rate_samples), "Macc/s"},
        {"setup_s", Median(setup_samples), "s"},
        {"peak_rss_mb", Median(rss_samples), "MB"},
    };
  } else {
    Tracer tracer;
    tracer.BeginRun();
    const RunResult traced = RunOnce(w, args.seed, w.threads, &tracer);
    check("traced run", traced.report);
    metrics = LayerMetrics(traced, tracer, Median(run_samples));
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out)) {
      std::fprintf(stderr, "perfbench_harness: cannot write %s\n", args.trace_out.c_str());
      return 1;
    }
  }

  for (const Metric& m : metrics) {
    std::printf("metric %-36s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (w.expect_paper_top) {
    std::printf("model error vs paper Table 6.1 (%s share of L1 misses): %.4f pts\n", kPaperType,
                paper_err);
  }
  std::printf("runs: %zu timed, %d checked, %d failed\n", run_samples.size(), attempted, failed);

  JsonWriter result;
  result.BeginObject();
  result.Key("correct").Bool(failed == 0);
  result.Key("attempted").Int(attempted);
  result.Key("failed").Int(failed);
  result.Key("metrics").BeginObject();
  for (const Metric& m : metrics) {
    result.Key(m.name).BeginObject();
    result.Key("value").Number(m.value);
    result.Key("unit").String(m.unit);
    result.EndObject();
  }
  result.EndObject();
  result.EndObject();
  std::printf("%s\n", result.str().c_str());
  return 0;
}
