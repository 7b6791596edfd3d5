#!/usr/bin/env bash
# Fails when .gitignore hides source: a tracked file that an ignore rule
# matches, or an untracked file under src/, tests/, tools/ or loopbench/
# that `git add` would skip (an unanchored `core` rule once swallowed
# src/core/ and a lint fixture that way).
#
# Usage: tools/check_ignored.sh
set -euo pipefail
cd "$(dirname "$0")/.."

status=0
tracked=$(git ls-files -ci --exclude-standard)
if [[ -n "$tracked" ]]; then
  echo "tracked files matched by .gitignore:"
  echo "$tracked"
  status=1
fi
hidden=$(git ls-files -oi --exclude-standard -- src tests tools loopbench)
if [[ -n "$hidden" ]]; then
  echo "ignored files under src/, tests/, tools/ or loopbench/:"
  echo "$hidden"
  status=1
fi
exit "$status"
