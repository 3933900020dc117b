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

REGISTRY=crates/core/src/registry.rs

# The vocabulary is read from the `"Name" | "Alias" =>` rows of the
# `define_registry!` invocation, so a new row is audited without editing
# this script. Regex metacharacters in names (the `+` of `GSPC+UCD`) are
# escaped; the parameterized `GSPZTC(t=N)` family has no row of its own.
NAMES=$(awk '/^define_registry! \{/ { on = 1; next } on && /^\}/ { on = 0 } on' "$REGISTRY" |
  grep -E '^[[:space:]]*"[^"]+"([[:space:]]*\|[[:space:]]*"[^"]+")*[[:space:]]*=>' |
  sed 's/=>.*//' | grep -oE '"[^"]+"' | tr -d '"' |
  sed 's/[][\.*^$+?(){}|]/\\&/g' | paste -sd'|' -)
case "|$NAMES|" in
  *'|GSPC|'*) ;;
  *)
    echo "registry-audit: no GSPC among the names read from $REGISTRY's define_registry! rows" >&2
    exit 1
    ;;
esac
NAMES="${NAMES}|GSPZTC\\(t=[0-9]+\\)"
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
