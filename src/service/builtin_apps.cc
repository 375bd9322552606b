#include "service/builtin_apps.h"

#include <cmath>
#include <cstdint>
#include <sstream>
#include <vector>

#include "apps/bfs/bfs.h"
#include "apps/kmeans/kmeans.h"
#include "apps/md/md.h"
#include "apps/spmv/spmv.h"
#include "common/error.h"
#include "ir/ir.h"

namespace accmg::service {

namespace {

/// Relative-tolerance float comparison (same spirit as the runtime
/// validator's reduction compare): |a-b| <= tol * max(1, |a|, |b|).
bool FloatsClose(const std::vector<float>& got, const std::vector<float>& want,
                 double tol, std::string* detail) {
  if (got.size() != want.size()) {
    *detail = "size mismatch";
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    const double a = got[i];
    const double b = want[i];
    const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
    if (std::fabs(a - b) > tol * scale) {
      std::ostringstream os;
      os << "element " << i << ": got " << a << ", want " << b;
      *detail = os.str();
      return false;
    }
  }
  return true;
}

bool IntsEqual(const std::vector<std::int32_t>& got,
               const std::vector<std::int32_t>& want, std::string* detail) {
  if (got.size() != want.size()) {
    *detail = "size mismatch";
    return false;
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      std::ostringstream os;
      os << "element " << i << ": got " << got[i] << ", want " << want[i];
      *detail = os.str();
      return false;
    }
  }
  return true;
}

std::string SaltedSource(const std::string& source, const std::string& salt) {
  if (salt.empty()) return source;
  return source + "\n// cache-salt: " + salt + "\n";
}

void FinishOutcome(const std::shared_ptr<AppJobOutcome>& outcome, bool checked,
                   bool ok, std::string detail) {
  if (outcome == nullptr) return;
  outcome->finished = true;
  outcome->checked = checked;
  outcome->ok = ok;
  outcome->detail = std::move(detail);
}

JobRequest MakeMdJob(const AppJobOptions& options,
                     std::shared_ptr<AppJobOutcome> outcome) {
  struct State {
    apps::MdInput input;
    std::vector<float> force;
  };
  auto state = std::make_shared<State>();
  state->input = apps::MakeMdInput(512 * options.scale, 12);
  state->force.assign(static_cast<std::size_t>(state->input.natoms) * 3, 0.0f);

  JobRequest request;
  request.name = "md";
  request.function = "md";
  request.source = SaltedSource(apps::MdSource(), options.source_salt);
  request.bind = [state](runtime::ProgramRunner& runner) {
    const apps::MdInput& in = state->input;
    // Bind runs once per execution attempt: reset the outputs so a job
    // retried after a fault starts from pristine state, not from the
    // failed attempt's partial writes.
    state->force.assign(state->force.size(), 0.0f);
    runner.BindArray("pos", const_cast<float*>(in.pos.data()),
                     ir::ValType::kF32,
                     static_cast<std::int64_t>(in.pos.size()));
    runner.BindArray("neigh", const_cast<std::int32_t*>(in.neigh.data()),
                     ir::ValType::kI32,
                     static_cast<std::int64_t>(in.neigh.size()));
    runner.BindArray("force", state->force.data(), ir::ValType::kF32,
                     static_cast<std::int64_t>(state->force.size()));
    runner.BindScalar("natoms", static_cast<std::int64_t>(in.natoms));
    runner.BindScalar("maxneigh", static_cast<std::int64_t>(in.maxneigh));
    runner.BindScalarF32("lj1", in.lj1);
    runner.BindScalarF32("lj2", in.lj2);
    runner.BindScalarF32("cutsq", in.cutsq);
  };
  const bool validate = options.validate_result;
  request.on_finish = [state, outcome,
                       validate](runtime::ProgramRunner* runner) {
    if (!validate || runner == nullptr) {
      FinishOutcome(outcome, false, runner != nullptr, "");
      return;
    }
    std::string detail;
    const bool ok = FloatsClose(state->force, apps::MdReference(state->input),
                                1e-4, &detail);
    FinishOutcome(outcome, true, ok, std::move(detail));
  };
  return request;
}

JobRequest MakeKmeansJob(const AppJobOptions& options,
                         std::shared_ptr<AppJobOutcome> outcome) {
  struct State {
    apps::KmeansInput input;
    std::vector<float> centroids;
    std::vector<std::int32_t> membership;
    std::vector<float> sums;
    std::vector<std::int32_t> counts;
  };
  auto state = std::make_shared<State>();
  state->input = apps::MakeKmeansInput(800 * options.scale, 4, 4, 7);
  state->centroids = state->input.centroids;
  state->membership.assign(static_cast<std::size_t>(state->input.npoints), 0);
  state->sums.assign(static_cast<std::size_t>(state->input.nclusters) *
                         static_cast<std::size_t>(state->input.nfeatures),
                     0.0f);
  state->counts.assign(static_cast<std::size_t>(state->input.nclusters), 0);

  JobRequest request;
  request.name = "kmeans";
  request.function = "kmeans";
  request.source = SaltedSource(apps::KmeansSource(), options.source_salt);
  request.bind = [state](runtime::ProgramRunner& runner) {
    const apps::KmeansInput& in = state->input;
    // Reset per-attempt state: kmeans iterates over its own outputs, so a
    // faulted attempt's partial centroids would poison a retry.
    state->centroids = in.centroids;
    state->membership.assign(state->membership.size(), 0);
    state->sums.assign(state->sums.size(), 0.0f);
    state->counts.assign(state->counts.size(), 0);
    runner.BindArray("features", const_cast<float*>(in.features.data()),
                     ir::ValType::kF32,
                     static_cast<std::int64_t>(in.features.size()));
    runner.BindArray("centroids", state->centroids.data(), ir::ValType::kF32,
                     static_cast<std::int64_t>(state->centroids.size()));
    runner.BindArray("membership", state->membership.data(), ir::ValType::kI32,
                     static_cast<std::int64_t>(state->membership.size()));
    runner.BindArray("sums", state->sums.data(), ir::ValType::kF32,
                     static_cast<std::int64_t>(state->sums.size()));
    runner.BindArray("counts", state->counts.data(), ir::ValType::kI32,
                     static_cast<std::int64_t>(state->counts.size()));
    runner.BindScalar("npoints", static_cast<std::int64_t>(in.npoints));
    runner.BindScalar("nfeatures", static_cast<std::int64_t>(in.nfeatures));
    runner.BindScalar("nclusters", static_cast<std::int64_t>(in.nclusters));
    runner.BindScalar("iterations", static_cast<std::int64_t>(in.iterations));
  };
  const bool validate = options.validate_result;
  request.on_finish = [state, outcome,
                       validate](runtime::ProgramRunner* runner) {
    if (!validate || runner == nullptr) {
      FinishOutcome(outcome, false, runner != nullptr, "");
      return;
    }
    std::string detail;
    const apps::KmeansResult want = apps::KmeansReference(state->input);
    // Chunked float reductions reorder centroid sums; memberships must
    // still match exactly, centroids up to ValidatedAppsTest's tolerance.
    bool ok = IntsEqual(state->membership, want.membership, &detail);
    if (ok) ok = FloatsClose(state->centroids, want.centroids, 2e-3, &detail);
    FinishOutcome(outcome, true, ok, std::move(detail));
  };
  return request;
}

JobRequest MakeBfsJob(const AppJobOptions& options,
                      std::shared_ptr<AppJobOutcome> outcome) {
  struct State {
    apps::BfsInput input;
    std::vector<std::int32_t> cost;
    std::int32_t flag = 0;
  };
  auto state = std::make_shared<State>();
  state->input = apps::MakeBfsInput(1000 * options.scale, 4);
  state->cost.assign(static_cast<std::size_t>(state->input.nnodes), -1);
  state->cost[static_cast<std::size_t>(state->input.source)] = 0;

  JobRequest request;
  request.name = "bfs";
  request.function = "bfs";
  request.source = SaltedSource(apps::BfsSource(), options.source_salt);
  request.bind = [state](runtime::ProgramRunner& runner) {
    const apps::BfsInput& in = state->input;
    // Reset per-attempt state: the frontier expansion reads `cost` back,
    // so a retry must restart from the unvisited graph.
    state->cost.assign(state->cost.size(), -1);
    state->cost[static_cast<std::size_t>(in.source)] = 0;
    state->flag = 0;
    runner.BindArray("offsets", const_cast<std::int32_t*>(in.offsets.data()),
                     ir::ValType::kI32,
                     static_cast<std::int64_t>(in.offsets.size()));
    runner.BindArray("edges", const_cast<std::int32_t*>(in.edges.data()),
                     ir::ValType::kI32,
                     static_cast<std::int64_t>(in.edges.size()));
    runner.BindArray("cost", state->cost.data(), ir::ValType::kI32,
                     static_cast<std::int64_t>(state->cost.size()));
    runner.BindArray("flag", &state->flag, ir::ValType::kI32, 1);
    runner.BindScalar("nnodes", static_cast<std::int64_t>(in.nnodes));
    runner.BindScalar("degree", static_cast<std::int64_t>(in.degree));
    runner.BindScalar("maxlevels", static_cast<std::int64_t>(in.max_levels));
  };
  const bool validate = options.validate_result;
  request.on_finish = [state, outcome,
                       validate](runtime::ProgramRunner* runner) {
    if (!validate || runner == nullptr) {
      FinishOutcome(outcome, false, runner != nullptr, "");
      return;
    }
    std::string detail;
    const bool ok =
        IntsEqual(state->cost, apps::BfsReference(state->input), &detail);
    FinishOutcome(outcome, true, ok, std::move(detail));
  };
  return request;
}

JobRequest MakeSpmvJob(const AppJobOptions& options,
                       std::shared_ptr<AppJobOutcome> outcome) {
  struct State {
    apps::SpmvInput input;
    std::vector<float> y;
  };
  auto state = std::make_shared<State>();
  state->input = apps::MakeSpmvInput(600 * options.scale, 8);
  state->y.assign(static_cast<std::size_t>(state->input.rows), 0.0f);

  JobRequest request;
  request.name = "spmv";
  request.function = "spmv";
  request.source = SaltedSource(apps::SpmvSource(), options.source_salt);
  request.bind = [state](runtime::ProgramRunner& runner) {
    const apps::SpmvInput& in = state->input;
    state->y.assign(state->y.size(), 0.0f);  // idempotent across retries
    runner.BindArray("values", const_cast<float*>(in.values.data()),
                     ir::ValType::kF32,
                     static_cast<std::int64_t>(in.values.size()));
    runner.BindArray("cols", const_cast<std::int32_t*>(in.cols.data()),
                     ir::ValType::kI32,
                     static_cast<std::int64_t>(in.cols.size()));
    runner.BindArray("x", const_cast<float*>(in.x.data()), ir::ValType::kF32,
                     static_cast<std::int64_t>(in.x.size()));
    runner.BindArray("y", state->y.data(), ir::ValType::kF32,
                     static_cast<std::int64_t>(state->y.size()));
    runner.BindScalar("rows", static_cast<std::int64_t>(in.rows));
    runner.BindScalar("maxnnz", static_cast<std::int64_t>(in.max_nnz));
  };
  const bool validate = options.validate_result;
  request.on_finish = [state, outcome,
                       validate](runtime::ProgramRunner* runner) {
    if (!validate || runner == nullptr) {
      FinishOutcome(outcome, false, runner != nullptr, "");
      return;
    }
    std::string detail;
    const bool ok = FloatsClose(state->y, apps::SpmvReference(state->input),
                                1e-4, &detail);
    FinishOutcome(outcome, true, ok, std::move(detail));
  };
  return request;
}

}  // namespace

bool IsBuiltinApp(const std::string& name) {
  return name == "md" || name == "kmeans" || name == "bfs" || name == "spmv";
}

JobRequest MakeAppJob(const AppJobOptions& options,
                      std::shared_ptr<AppJobOutcome> outcome) {
  ACCMG_REQUIRE(options.scale >= 1, "app input scale must be >= 1");
  JobRequest request;
  if (options.app == "md") {
    request = MakeMdJob(options, std::move(outcome));
  } else if (options.app == "kmeans") {
    request = MakeKmeansJob(options, std::move(outcome));
  } else if (options.app == "bfs") {
    request = MakeBfsJob(options, std::move(outcome));
  } else if (options.app == "spmv") {
    request = MakeSpmvJob(options, std::move(outcome));
  } else {
    ACCMG_REQUIRE(false, "unknown builtin app: " + options.app);
  }
  request.tenant = options.tenant;
  request.gpus = options.gpus;
  request.exec_options = options.exec;
  request.compile_options = options.compile;
  return request;
}

}  // namespace accmg::service
