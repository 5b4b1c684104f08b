#!/usr/bin/env bash
# Docs-consistency gate: every configuration field of RuntimeConfig,
# StealConfig (its nested steal block), and cache::HierarchyConfig must
# be documented in docs/TUNING.md, and every knob row there must name a
# field that still exists. Fails (listing the missing or stale names)
# when a field is added without a docs entry or deleted with its row
# left behind, so the tuning page can never silently rot. Likewise every
# constant docs/*.md or README.md cites as a backticked `ns::kName` must
# still be defined under src/, every function or type they cite by
# qualified name, such as `jelf::ValidateImageLayout`, must still be
# declared by a header under src/, and every bank-record field they cite
# as `RecvBank::name` or `SendBank::name` must still be a field of that
# record in src/core/runtime.hpp. Pure grep/sed — no build needed, POSIX
# awk suffices.
set -euo pipefail
cd "$(dirname "$0")/.."

TUNING=docs/TUNING.md
fail=0

# Member names of a struct: declarations indented 2 spaces past the
# struct line, ending in "= default;", "{...};", or ";" (member functions
# have "(" after the name and never match; function bodies are indented
# deeper). A struct nested in a class passes its own indent, "  ".
fields_of() { # struct_name file [indent]
  local indent="${3:-}"
  awk -v struct="$1" -v indent="$indent" '
    $0 ~ "^" indent "struct " struct " \\{" { in_struct = 1; next }
    in_struct && $0 ~ "^" indent "\\};" { in_struct = 0 }
    in_struct { sub(/\/\/.*/, ""); print }
  ' "$2" |
  sed -n -E \
    "s/^$indent  [A-Za-z_][A-Za-z0-9_:<>, *]*[A-Za-z0-9_>] +([a-z_][a-z0-9_]*) *(= .*|\\{.*|;*) *;? *\$/\\1/p"
}

# Lines of every "## ..." section whose heading matches the pattern
# (and not the optional exclude pattern) — scoping each struct's check
# to its own sections, so a same-named field of another struct can't
# satisfy it from elsewhere in the page.
sections_matching() { # heading_regex [exclude_regex]
  awk -v pat="$1" -v ex="${2:-}" '
    /^## / { in_s = ($0 ~ pat) && (ex == "" || $0 !~ ex) }
    in_s
  ' "$TUNING"
}

# Backticked names in the first column of every table row on stdin
# (header and separator rows have none), each stripped of a dotted
# `steal.`-style prefix.
row_names() {
  awk -F'|' '/^\|/ { print $2 }' | { grep -o '`[^`]*`' || true; } |
    tr -d '`' | sed -E 's/^[a-z_]+\.//'
}

check() { # struct_name file heading_regex [exclude_regex]
  local missing=""
  local found=0
  local stale=0
  local sections fields
  sections="$(sections_matching "$3" "${4:-}")"
  if [ -z "$sections" ]; then
    echo "FAIL: no section matching '$3' in $TUNING"
    fail=1
    return
  fi
  fields="$(fields_of "$1" "$2")"
  while read -r field; do
    [ -z "$field" ] && continue
    found=$((found + 1))
    # Documented as `field` or as a dotted path like `steal.field`. A
    # here-string, not a pipe: under pipefail, grep -q exiting at its first
    # match can SIGPIPE the writer and read as a miss.
    if ! grep -Eq "\`([a-z_]+\.)?$field\`" <<< "$sections"; then
      missing="$missing $field"
    fi
  done <<< "$fields"
  # Reverse direction: a row whose knob is no longer a field is stale.
  while read -r name; do
    [ -z "$name" ] && continue
    if ! grep -qxF "$name" <<< "$fields"; then
      echo "STALE: $1 row '$name'"
      stale=1
    fi
  done < <(printf '%s\n' "$sections" | row_names)
  if [ "$found" -eq 0 ]; then
    echo "FAIL: extracted no fields from struct $1 in $2 (script rot?)"
    fail=1
  elif [ -n "$missing" ]; then
    echo "FAIL: $1 fields missing from $TUNING:$missing"
    fail=1
  elif [ "$stale" -ne 0 ]; then
    echo "FAIL: $1 rows in $TUNING name deleted fields"
    fail=1
  else
    echo "OK: all $found $1 fields documented in $TUNING, no stale rows"
  fi
}

# The work-stealing, jam-cache, security-policy, and adaptive-banks
# sections document StealConfig's, JamCacheConfig's, SecurityPolicy's,
# and AdaptiveBankConfig's *nested* fields, so they are excluded from
# the RuntimeConfig scope — a nested name must not satisfy a same-named
# top-level RuntimeConfig field.
check RuntimeConfig src/core/runtime.hpp '^## RuntimeConfig' \
  'work stealing|jam cache|security policy|adaptive banks'
check StealConfig src/core/runtime.hpp '^## RuntimeConfig — work stealing'
check JamCacheConfig src/core/runtime.hpp '^## RuntimeConfig — jam cache'
check AdaptiveBankConfig src/core/runtime.hpp \
  '^## RuntimeConfig — adaptive banks'
check SecurityPolicy src/core/security.hpp \
  '^## RuntimeConfig — security policy'
check FabricOptions src/core/fabric.hpp '^## FabricOptions'
check EngineConfig src/sim/engine.hpp '^## EngineConfig'
check TreeConfig src/core/fabric.hpp '^## TreeConfig'
check SwitchConfig src/net/switch.hpp '^## SwitchConfig'
check NicConfig src/net/nic.hpp '^## NicConfig'
check HierarchyConfig src/cache/config.hpp '^## HierarchyConfig'
check OpenLoopConfig src/benchlib/openloop.hpp '^## OpenLoopConfig'
check StressConfig src/benchlib/stress.hpp '^## StressConfig'

# Constants the docs cite by name, such as `cache::kDramCycles`: some file
# under src/ that opens namespace twochains::<ns> must define kName, as a
# const/constexpr variable or an enumerator. A family pattern such as
# `net::k*` names no single constant and is skipped.
stale_constants=""
cited=0
while read -r ref; do
  [ -z "$ref" ] && continue
  cited=$((cited + 1))
  ns="${ref%::*}"
  name="${ref##*::}"
  defined=0
  while read -r file; do
    [ -z "$file" ] && continue
    if grep -Eq "^namespace twochains::$ns \{" "$file" &&
      grep -Eq "(const|constexpr)[^;(]* $name *(=|\{|;)|^ *$name *(=|,)" \
        "$file"; then
      defined=1
      break
    fi
  done < <(grep -rlw -- "$name" src || true)
  [ "$defined" -eq 1 ] || stale_constants="$stale_constants $ref"
done < <(cat docs/*.md README.md |
  { grep -oE '`[a-z_]+(::[a-z_]+)*::k[A-Za-z0-9_]+`' || true; } |
  tr -d '`' | sort -u)
if [ "$cited" -eq 0 ]; then
  echo "FAIL: found no cited constants in the docs (script rot?)"
  fail=1
elif [ -n "$stale_constants" ]; then
  echo "FAIL: docs cite constants nothing under src/ defines:$stale_constants"
  fail=1
else
  echo "OK: all $cited constants the docs cite are defined under src/"
fi

# Functions and types the docs cite by qualified name, such as
# `jelf::ValidateImageLayout`, `Runtime::InvokeFrame` or
# `bench::PaperFabric()`: a header under src/ whose code (comments
# stripped) opens namespace twochains::<qualifier>, or declares a class or
# struct <qualifier>, must declare the name as a type or a function. A
# cited name starts upper-case or ends in "()"; constants and bank-record
# fields have their own checks.
cited_re='`[A-Za-z_][A-Za-z0-9_]*(::[A-Za-z_][A-Za-z0-9_]*)*::'
cited_re="$cited_re"'([A-Z][A-Za-z0-9_]*(\(\))?|[a-z_][A-Za-z0-9_]*\(\))`'
stale_names=""
cited=0
while read -r ref; do
  [ -z "$ref" ] && continue
  cited=$((cited + 1))
  path="${ref%()}"
  name="${path##*::}"
  qual="${path%::*}"
  qual="${qual##*::}"
  scope="^namespace twochains::([a-z_]+::)*$qual \{|(class|struct) $qual( |\$)"
  decl="(class|struct|enum( class)?|using) $name( |\$)"
  decl="$decl|(^|[^A-Za-z0-9_.>:])$name *\("
  declared=0
  while read -r file; do
    [ -z "$file" ] && continue
    code="$(sed -E 's://.*$::' "$file")"
    if grep -Eq "$scope" <<< "$code" && grep -Eq "$decl" <<< "$code"; then
      declared=1
      break
    fi
  done < <(grep -rlw --include='*.hpp' -- "$name" src || true)
  [ "$declared" -eq 1 ] || stale_names="$stale_names $ref"
done < <(cat docs/*.md README.md |
  { grep -oE "$cited_re" || true; } | tr -d '`' | sort -u)
if [ "$cited" -eq 0 ]; then
  echo "FAIL: found no cited functions or types in the docs (script rot?)"
  fail=1
elif [ -n "$stale_names" ]; then
  echo "FAIL: docs cite functions or types no src/ header declares:$stale_names"
  fail=1
else
  echo "OK: all $cited functions and types the docs cite are declared in src/"
fi

# Bank-record fields the docs cite, such as `RecvBank::claim`: the record,
# nested in Runtime, must still declare that field.
stale_fields=""
cited=0
for record in RecvBank SendBank; do
  fields="$(fields_of "$record" src/core/runtime.hpp "  ")"
  if [ -z "$fields" ]; then
    echo "FAIL: extracted no fields from Runtime::$record (script rot?)"
    fail=1
    continue
  fi
  while read -r name; do
    [ -z "$name" ] && continue
    cited=$((cited + 1))
    if ! grep -qxF "$name" <<< "$fields"; then
      stale_fields="$stale_fields $record::$name"
    fi
  done < <(cat docs/*.md README.md |
    { grep -oE "\`$record::[a-z_]+\`" || true; } |
    sed -E "s/^\`$record::|\`\$//g" | sort -u)
done
if [ "$cited" -eq 0 ]; then
  echo "FAIL: found no cited bank-record fields in the docs (script rot?)"
  fail=1
elif [ -n "$stale_fields" ]; then
  echo "FAIL: docs cite bank-record fields runtime.hpp lacks:$stale_fields"
  fail=1
else
  echo "OK: all $cited bank-record fields the docs cite are declared"
fi

# docs/SECURITY.md is the threat-model page: every SecurityPolicy knob
# must be covered there too (the guarantee table), so a new mitigation
# cannot land without its guarantee being written down.
SECURITY=docs/SECURITY.md
if [ ! -f "$SECURITY" ]; then
  echo "FAIL: $SECURITY missing"
  fail=1
else
  missing=""
  while read -r field; do
    [ -z "$field" ] && continue
    grep -Eq "\`$field\`" "$SECURITY" || missing="$missing $field"
  done < <(fields_of SecurityPolicy src/core/security.hpp)
  if [ -n "$missing" ]; then
    echo "FAIL: SecurityPolicy fields missing from $SECURITY:$missing"
    fail=1
  else
    echo "OK: all SecurityPolicy fields documented in $SECURITY"
  fi
fi

exit $fail
