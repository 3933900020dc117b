#!/usr/bin/env bash
# Registry audit (CI gate): policy knowledge must live in the policy
# registry (crates/core/src/registry.rs) plus the grcheck oracle
# constructor table — every downstream layer (art, bench, serve, check)
# iterates the registry instead of spelling policy names.
#
# This script greps those crates for quoted policy-name string literals
# and fails when a file exceeds its recorded baseline in
# tools/registry_audit_allowlist.txt (the residue is almost entirely test
# fixtures and figure-specific panels) or when a new file acquires any.
# Shrinking a count is always fine (update the baseline downward); to grow
# one, move the knowledge into registry metadata instead, or add a
# justified entry to the allowlist.
set -uo pipefail
cd "$(dirname "$0")/.."

NAMES='DRRIP|DRRIP-2|DRRIP-4|SRRIP|SRRIP-2|NRU|LRU|SHiP-mem|GS-DRRIP|GS-DRRIP-2|GS-DRRIP-4|GSPZTC|GSPZTC\+TSE|GSPC|GSPC\+UCD|GSPC\+BYP|DRRIP\+UCD|NRU\+UCD|GS-DRRIP\+UCD|OPT|GOPT|DIP|LIP|BIP|Random|WayPart|UCP-lite|SLRU|GSPZTC\(t=[0-9]+\)'
PATTERN="\"(${NAMES})\""
SCOPE="crates/art crates/bench crates/serve crates/check"
ALLOWLIST=tools/registry_audit_allowlist.txt

fail=0

# New or grown straggler files.
while IFS=: read -r path count; do
  [ "$count" = 0 ] && continue
  budget=$(awk -v p="$path" '$1 == p { print $2 }' "$ALLOWLIST")
  if [ -z "$budget" ]; then
    echo "registry-audit: $path carries $count policy-name literal(s) but has no allowlist entry" >&2
    echo "  (iterate gspc::registry instead, or add a justified baseline entry)" >&2
    fail=1
  elif [ "$count" -gt "$budget" ]; then
    echo "registry-audit: $path grew to $count policy-name literal(s) (baseline $budget)" >&2
    fail=1
  fi
done < <(grep -rcE --include='*.rs' "$PATTERN" $SCOPE)

# Stale allowlist entries (file gone or literal-free) must be pruned so
# the baseline keeps matching reality.
while read -r path budget; do
  case "$path" in ''|\#*) continue ;; esac
  count=$(grep -cE "$PATTERN" "$path" 2>/dev/null || echo 0)
  if [ "$count" = 0 ]; then
    echo "registry-audit: stale allowlist entry $path (no literals left) — prune it" >&2
    fail=1
  fi
done < "$ALLOWLIST"

if [ "$fail" != 0 ]; then
  echo "registry-audit: FAILED" >&2
  exit 1
fi
echo "registry-audit: clean"
