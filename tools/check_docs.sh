#!/usr/bin/env bash
# Validate that README/docs code snippets and CLI examples actually run,
# and run the repo lints (among them: intra-repo markdown links point at
# files that exist).
#
# Usage: tools/check_docs.sh [pytest args...]
#   e.g. tools/check_docs.sh -m "not slow"   # skip the MM-256 quickstart
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "-- repo convention lints --"
python tools/lint_repo.py

echo "-- docs snippet tests --"
python -m pytest -q tests/test_docs_snippets.py "$@"
