#!/usr/bin/env bash
# Grep-based documentation checker, run by the CI docs-check step.
#
# Over README.md and docs/*.md it verifies that
#   1. every referenced repository file path exists,
#   2. every `--flag` mentioned in backticks appears in a source file,
#   3. every metric name with a known instrument prefix (sim., comm.,
#      loader., executor., accmgc., validator., service., fault.,
#      recovery., mapper., native.) resolves to a real string literal in
#      src/ or tools/,
#   4. the README documentation index links every doc under docs/,
#   5. every CI job name in backticks (a hyphenated name ending in -smoke,
#      -test or -check) is a job of .github/workflows/ci.yml, and every
#      `smoke.*` ctest name is registered in tests/CMakeLists.txt.
#
# Exits non-zero listing every stale reference, so renaming a flag, a
# metric, a CI job or a smoke test without updating the docs fails CI.
set -u
cd "$(dirname "$0")/.."

docs=(README.md docs/*.md)
fail=0

note() { printf '%s\n' "$*"; }
err() {
  printf 'FAIL: %s\n' "$*" >&2
  fail=1
}

# --- 1. referenced file paths exist -----------------------------------
# Only tokens that look like repo-relative files with an extension are
# checked; bare binary names (build/... targets) are skipped.
paths=$(grep -ohE '(src|docs|tools|tests|bench|examples|results)/[A-Za-z0-9_./-]+\.(md|h|cpp|cc|c|json|yml|sh|txt)' "${docs[@]}" |
  sort -u)
for path in $paths; do
  [ -e "$path" ] || err "referenced path does not exist: $path"
done
note "checked $(printf '%s\n' "$paths" | wc -l) referenced paths"

# --- 2. documented flags exist in the sources -------------------------
flags=$(grep -ohE -- '`--[a-z][a-z-]*' "${docs[@]}" | tr -d '`' | sort -u)
for flag in $flags; do
  if ! grep -rqF -- "$flag" tools/ bench/ examples/ src/; then
    err "documented flag not found in any source: $flag"
  fi
done
note "checked $(printf '%s\n' "$flags" | wc -l) documented flags"

# --- 3. documented metric names exist as string literals --------------
metrics=$(grep -ohE '`(sim|comm|loader|executor|accmgc|opt|validator|service|fault|recovery|mapper|native)\.[a-z0-9_.]+`' "${docs[@]}" |
  tr -d '`' | sort -u)
for metric in $metrics; do
  if ! grep -rqF -- "\"$metric\"" src/ tools/; then
    err "documented metric has no matching string literal: $metric"
  fi
done
note "checked $(printf '%s\n' "$metrics" | wc -l) documented metric names"

# --- 4. README indexes every doc --------------------------------------
for doc in docs/*.md; do
  if ! grep -qF "$doc" README.md; then
    err "README.md does not link $doc"
  fi
done
note "checked README documentation index"

# --- 5. CI jobs and smoke tests named in the docs exist ---------------
ci_jobs=$(awk '/^jobs:/ { in_jobs = 1; next }
               in_jobs && /^  [a-z0-9_-]+:$/ { sub(/:$/, ""); print $1 }' \
  .github/workflows/ci.yml)
jobs=$(grep -ohE '`[a-z][a-z0-9]*(-[a-z0-9]+)*-(smoke|test|check)`' "${docs[@]}" |
  tr -d '`' | sort -u)
for job in $jobs; do
  if ! printf '%s\n' "$ci_jobs" | grep -qxF -- "$job"; then
    err "documented CI job is not defined in ci.yml: $job"
  fi
done
smoke_tests=$(grep -ohE '`smoke\.[a-z0-9_]+`' "${docs[@]}" | tr -d '`' | sort -u)
for test in $smoke_tests; do
  if ! grep -qE -- "NAME ${test//./\\.}( |\$)" tests/CMakeLists.txt; then
    err "documented smoke test is not registered in tests/CMakeLists.txt: $test"
  fi
done
note "checked $(printf '%s\n' "$jobs" | grep -c .) CI job and" \
  "$(printf '%s\n' "$smoke_tests" | grep -c .) smoke test names"

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED" >&2
  exit 1
fi
echo "docs check OK"
