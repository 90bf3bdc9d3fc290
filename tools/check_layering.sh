#!/usr/bin/env bash
# Layering guard: each library under src/ may include only from itself and
# the layers below it (see docs/ARCHITECTURE.md). In particular, src/core
# must not reach up into dataflow/, and src/net must not reach up into
# monitor/ or dataflow/ — the refactor that split the engine into
# transport / policy / change-over layers depends on those edges staying
# absent. The session runtime sits between dataflow and exp: it may include
# dataflow/net/monitor, and nothing at or below dataflow may include
# session/.
#
# Usage: check_layering.sh [repo-root]
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
cd "$root" || exit 2

# layer -> directories it may include from (itself is always allowed).
allowed() {
  case "$1" in
    common)   echo "" ;;
    sim)      echo "common" ;;
    obs)      echo "common sim" ;;
    trace)    echo "common sim" ;;
    workload) echo "common" ;;
    net)      echo "common sim obs trace" ;;
    monitor)  echo "common sim obs trace net" ;;
    fault)    echo "common sim obs trace net" ;;
    core)     echo "common sim obs trace net monitor" ;;
    cache)    echo "common sim obs trace net monitor core workload" ;;
    dataflow) echo "common sim obs trace net monitor fault core workload cache" ;;
    session)  echo "common sim obs trace net monitor core workload cache dataflow" ;;
    exp)      echo "common sim obs trace net monitor fault core workload cache dataflow session" ;;
    *)        echo "__unknown__" ;;
  esac
}

status=0
for dir in src/*/; do
  layer="$(basename "$dir")"
  allow="$layer $(allowed "$layer")"
  if [ "$(allowed "$layer")" = "__unknown__" ]; then
    echo "layering: unknown layer src/$layer — add it to tools/check_layering.sh"
    status=1
    continue
  fi
  while IFS=: read -r file line include; do
    target="${include#*\"}"
    target="${target%%/*}"
    ok=0
    for a in $allow; do
      [ "$target" = "$a" ] && ok=1 && break
    done
    if [ "$ok" -eq 0 ]; then
      echo "layering violation: $file:$line includes \"$target/\" (src/$layer may only include: $allow)"
      status=1
    fi
  done < <(grep -rn '#include "[a-z_]*/' "$dir" --include='*.h' --include='*.cc' -o 2>/dev/null)
done

# Finer-grained rule inside src/session: the overload-control module
# (overload.* and admission.*) is pure policy — backpressure signals in,
# decisions out. It must stay engine-free so controllers remain unit-testable
# with hand-built signals; only the SessionManager wires policy to engines.
for f in src/session/overload.h src/session/overload.cc \
         src/session/admission.h src/session/admission.cc; do
  [ -f "$f" ] || { echo "layering: missing $f"; status=1; continue; }
  while IFS=: read -r line include; do
    echo "layering violation: $f:$line includes \"${include#*\"}\" (the overload module must not depend on dataflow/)"
    status=1
  done < <(grep -n '#include "dataflow/' "$f" -o 2>/dev/null)
done

# Finer-grained rules around the result cache (docs/CACHING.md):
#   - src/cache is engine-free policy + bookkeeping. It must never include
#     dataflow/ or session/ so the fabric stays unit-testable with
#     hand-built keys and images (the coarse table above also enforces
#     this; the explicit check keeps the intent greppable).
#   - Only the engine/session/exp layers (plus tools, benches and tests)
#     may consume cache/: layers at or below workload must not know the
#     cache exists.
for f in src/cache/*.h src/cache/*.cc; do
  [ -f "$f" ] || { echo "layering: missing src/cache sources"; status=1; continue; }
  while IFS=: read -r line include; do
    echo "layering violation: $f:$line includes \"${include#*\"}\" (src/cache must not depend on dataflow/ or session/)"
    status=1
  done < <(grep -n '#include "\(dataflow\|session\)/' "$f" -o 2>/dev/null)
done

while IFS=: read -r file line include; do
  case "$file" in
    src/cache/*|src/dataflow/*|src/session/*|src/exp/*) continue ;;
  esac
  echo "layering violation: $file:$line includes cache/ (below the engine, only dataflow/session/exp may include the result cache)"
  status=1
done < <(grep -rn '#include "cache/' src --include='*.h' --include='*.cc' 2>/dev/null)

# Finer-grained rules around the transport seam (docs/ARCHITECTURE.md,
# "Transport backends"):
#   - src/net/tcp is the realtime socket layer. It must stay simulator-free
#     (raw fds, monotonic seconds, function-pointer callbacks) so it can be
#     tested and reasoned about without the discrete-event kernel; the
#     realtime bridge (src/net/realtime.*) is the single translation point.
#   - The tcp backend is an implementation detail of src/net. Production
#     code outside it talks to net/transport.h and net/realtime.h, never to
#     net/tcp/ directly. (Isolation tests under tests/ are exempt: testing
#     the backend without the engine is the point.)
for f in src/net/tcp/*.h src/net/tcp/*.cc; do
  [ -f "$f" ] || { echo "layering: missing src/net/tcp sources"; status=1; continue; }
  while IFS=: read -r line include; do
    echo "layering violation: $f:$line includes \"${include#*\"}\" (src/net/tcp must not depend on sim/ or dataflow/)"
    status=1
  done < <(grep -n '#include "\(sim\|dataflow\)/' "$f" -o 2>/dev/null)
done

while IFS=: read -r file line include; do
  case "$file" in
    src/net/*) continue ;;
  esac
  echo "layering violation: $file:$line includes net/tcp/ (only src/net may include the tcp backend; use net/transport.h or net/realtime.h)"
  status=1
done < <(grep -rn '#include "net/tcp/' src tools --include='*.h' --include='*.cc' 2>/dev/null)

# Strict number parsing lives in src/common/parse.cc alone: no other file
# in src/, tools/ or bench/ (tests/ and perfbench/ are exempt) may call a
# text-to-number function, so hand-rolled parsers cannot grow back.
parse_calls='\b(strto(l|ll|ul|ull|f|d|ld)|ato(i|l|ll|f)|sto(i|l|ll|ul|ull|f|d|ld)|from_chars|sscanf)\b'
while IFS=: read -r file line _; do
  [ "$file" = "src/common/parse.cc" ] && continue
  echo "parse violation: $file:$line converts text to a number outside src/common/parse.cc (use common/parse.h)"
  status=1
done < <(grep -rnE "$parse_calls" src tools bench --include='*.h' --include='*.cc' 2>/dev/null)

if [ "$status" -eq 0 ]; then
  echo "layering: OK"
fi
exit "$status"
