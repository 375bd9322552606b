// Adapters that turn the builtin SHOC apps (md, kmeans, bfs, spmv) into
// service JobRequests. Used by the serving front-end (tools/accmgc_serve.cc),
// the saturation benchmark and the smoke.serve_drive check — one place that
// knows how each app binds its host arrays.
//
// Each request's closures own the app's input and output storage
// (shared_ptr state), so the job is self-contained: submit it and forget
// it; optional result validation against the app's native single-thread
// reference runs in on_finish, and its verdict lands in the AppJobOutcome
// the caller kept.
#pragma once

#include <memory>
#include <string>

#include "runtime/options.h"
#include "service/job.h"
#include "translator/offload.h"

namespace accmg::service {

struct AppJobOptions {
  std::string app;  ///< "md" | "kmeans" | "bfs" | "spmv"
  std::string tenant = "default";
  int gpus = 1;

  /// Diff the job's outputs against the app's native reference in
  /// on_finish (float outputs compared with a relative tolerance, integer
  /// outputs exactly; kmeans centroids use the looser 2e-3 of
  /// ValidatedAppsTest since chunked reductions reorder float sums).
  bool validate_result = false;

  runtime::ExecOptions exec;
  translator::CompileOptions compile;

  /// When non-empty, appended to the source as a trailing comment. The
  /// program is semantically unchanged but its cache key differs — how the
  /// benchmark forces cold-cache compiles per job.
  std::string source_salt;

  /// Input size multiplier over the smoke defaults (>= 1).
  int scale = 1;
};

/// Validation verdict, filled by on_finish when validate_result was set.
struct AppJobOutcome {
  bool finished = false;
  bool checked = false;
  bool ok = false;
  std::string detail;
};

bool IsBuiltinApp(const std::string& name);

/// Builds a ready-to-submit request. Throws on unknown app names
/// (check IsBuiltinApp first when the name comes from the wire).
JobRequest MakeAppJob(const AppJobOptions& options,
                      std::shared_ptr<AppJobOutcome> outcome = nullptr);

}  // namespace accmg::service
