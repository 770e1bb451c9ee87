#include "src/cli/crashtest.h"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "src/cli/scenario_registry.h"
#include "src/machine/faults.h"
#include "src/util/json_writer.h"

namespace dprof {

namespace {

// What a seam is expected to do to a short audited run. Seams built to be
// *recovered* must leave the run healthy; seams built to be *caught* must
// end it in the matching structured diagnostic.
struct SeamCase {
  FaultSeam seam;
  bool expect_diagnostic;
  StatusCode expect_code;
};

constexpr SeamCase kSeamCases[] = {
    {FaultSeam::kSlabGrow, false, StatusCode::kOk},
    {FaultSeam::kLaneDrop, false, StatusCode::kOk},
    {FaultSeam::kLaneDup, false, StatusCode::kOk},
    {FaultSeam::kClockSkew, false, StatusCode::kOk},
    {FaultSeam::kExtBankPressure, false, StatusCode::kOk},
    {FaultSeam::kMailboxOverflow, false, StatusCode::kOk},
    {FaultSeam::kWindowJitter, false, StatusCode::kOk},
    {FaultSeam::kLatticeCorrupt, true, StatusCode::kDataLoss},
    {FaultSeam::kEpochStall, true, StatusCode::kDeadlineExceeded},
};

const char* const kScenarios[] = {"memcached", "apache", "kernel", "conflict_demo"};

struct CellResult {
  std::string scenario;
  std::string seam;
  std::string outcome;  // "ok" or "diagnostic"
  bool pass = false;
  Status status;
  uint64_t injected = 0;
  uint64_t recovered = 0;
  uint64_t mailbox_dropped = 0;
  uint64_t audits_run = 0;
  bool degraded = false;
};

RunSpec CellSpec(const SeamCase& sc, int threads) {
  RunSpec spec;
  // Small geometry: the matrix is 4 scenarios x 9 seams, so each cell must
  // be cheap; every seam's default cadence fires many times in 2M cycles.
  spec.cores = 8;
  spec.seed = 1;
  spec.collect_cycles = 2'000'000;
  spec.threads = threads;
  spec.build_view_json = false;
  spec.collect_histories = false;
  spec.audit_epochs = 16;
  spec.fault_seams = FaultSeamName(sc.seam);
  // A hung cell must become a diagnostic long before CI's job timeout.
  spec.watchdog_wall_seconds = 120.0;
  if (sc.seam == FaultSeam::kWindowJitter) {
    // The jitter seam perturbs the sampled-window schedule; it needs a
    // sampled run with several period rollovers to walk the degradation
    // ladder (widen, widen, exact fallback).
    spec.sampled = true;
    spec.sampling_period = 200'000;
    spec.sampling_window = 10'000;
  }
  if (sc.seam == FaultSeam::kEpochStall) {
    // The stall begins at epoch 64 (FaultPlanConfig::stall_after_epochs);
    // a tight stall budget turns it into a diagnostic quickly.
    spec.watchdog_stall_epochs = 64;
  }
  return spec;
}

CellResult RunCell(const std::string& scenario, const SeamCase& sc, int threads) {
  const ScenarioReport report =
      RunScenario(ScenarioRegistry::Default(), scenario, CellSpec(sc, threads));
  CellResult cell;
  cell.scenario = scenario;
  cell.seam = FaultSeamName(sc.seam);
  cell.status = report.status;
  for (const ScenarioReport::SeamCount& count : report.fault_seams) {
    cell.injected += count.injected;
    cell.recovered += count.recovered;
  }
  cell.mailbox_dropped = report.mailbox_dropped;
  cell.audits_run = report.audits_run;
  cell.degraded = report.degraded;
  if (report.status.ok()) {
    cell.outcome = "ok";
    cell.pass = !sc.expect_diagnostic;
  } else {
    cell.outcome = "diagnostic";
    cell.pass = sc.expect_diagnostic && report.status.code() == sc.expect_code;
  }
  return cell;
}

std::string MatrixToJson(const std::vector<CellResult>& cells, bool pass) {
  JsonWriter json;
  json.BeginObject();
  json.Key("pass").Bool(pass);
  json.Key("cells").BeginArray();
  for (const CellResult& cell : cells) {
    json.BeginObject();
    json.Key("scenario").String(cell.scenario);
    json.Key("seam").String(cell.seam);
    json.Key("outcome").String(cell.outcome);
    json.Key("pass").Bool(cell.pass);
    json.Key("status_code").String(StatusCodeName(cell.status.code()));
    json.Key("status_seam").String(cell.status.seam());
    json.Key("status_message").String(cell.status.message());
    json.Key("injected").UInt(cell.injected);
    json.Key("recovered").UInt(cell.recovered);
    json.Key("mailbox_dropped").UInt(cell.mailbox_dropped);
    json.Key("audits_run").UInt(cell.audits_run);
    json.Key("degraded").Bool(cell.degraded);
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();
  return json.str();
}

}  // namespace

int CmdCrashtest(const std::vector<std::string>& args) {
  bool json = false;
  int threads = 0;
  for (size_t i = 2; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--threads") {
      if (i + 1 >= args.size()) {
        std::fprintf(stderr, "dprof: --threads requires a value\n");
        return 2;
      }
      errno = 0;
      char* end = nullptr;
      const unsigned long long parsed = std::strtoull(args[++i].c_str(), &end, 10);
      if (errno != 0 || end == args[i].c_str() || *end != '\0' || parsed > 1024) {
        std::fprintf(stderr, "dprof: --threads must be an integer in [0, 1024]\n");
        return 2;
      }
      threads = static_cast<int>(parsed);
    } else {
      std::fprintf(stderr, "dprof: unknown flag '%s' (accepted here: --json --threads)\n",
                   arg.c_str());
      return 2;
    }
  }

  std::vector<CellResult> cells;
  uint64_t injected_by_seam[kNumFaultSeams] = {};
  for (const char* scenario : kScenarios) {
    for (const SeamCase& sc : kSeamCases) {
      if (!json) {
        std::fprintf(stderr, "crashtest: %s x %s...\n", scenario, FaultSeamName(sc.seam));
      }
      CellResult cell = RunCell(scenario, sc, threads);
      injected_by_seam[static_cast<int>(sc.seam)] += cell.injected;
      cells.push_back(std::move(cell));
    }
  }

  bool pass = true;
  for (const CellResult& cell : cells) {
    pass = pass && cell.pass;
  }
  // Every seam must actually have fired in at least one scenario — a seam
  // whose injected count is zero everywhere is dead code, not coverage.
  std::string dead_seams;
  for (const SeamCase& sc : kSeamCases) {
    if (injected_by_seam[static_cast<int>(sc.seam)] == 0) {
      pass = false;
      dead_seams += dead_seams.empty() ? "" : ",";
      dead_seams += FaultSeamName(sc.seam);
    }
  }

  if (json) {
    std::printf("%s\n", MatrixToJson(cells, pass).c_str());
  } else {
    std::printf("%-14s %-18s %-11s %-6s %s\n", "scenario", "seam", "outcome", "pass",
                "status");
    for (const CellResult& cell : cells) {
      std::printf("%-14s %-18s %-11s %-6s %s\n", cell.scenario.c_str(), cell.seam.c_str(),
                  cell.outcome.c_str(), cell.pass ? "PASS" : "FAIL",
                  cell.status.ToString().c_str());
    }
    if (!dead_seams.empty()) {
      std::printf("dead seams (never injected): %s\n", dead_seams.c_str());
    }
    std::printf("crashtest: %s (%zu cells)\n", pass ? "PASS" : "FAIL", cells.size());
  }
  return pass ? 0 : 1;
}

}  // namespace dprof
