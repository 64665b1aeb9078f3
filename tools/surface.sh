#!/usr/bin/env bash
# Lists `pub fn`s under crates/*/src that no other file names: not production
# code elsewhere, not tests/, crates/*/tests/, examples/, crates/bench or the
# frozen benchmark/ package. Comments and `pub use` re-exports do not count as
# a use. Exits 1 when anything is listed that tools/surface.allow (one
# `path:name  reason` per line) does not excuse.
set -euo pipefail
cd "$(dirname "$0")/.."

find crates src tests examples benchmark/src -name '*.rs' -print0 | sort -z |
  xargs -0 awk -v allow=tools/surface.allow '
    BEGIN {
      while ((getline line < allow) > 0)
        if (line !~ /^#/ && split(line, f, /[ \t]+/) > 1) allowed[f[1]] = 1
    }
    /^[ \t]*\/\// || /^[ \t]*pub use / { next }
    {
      if (FILENAME ~ /^crates\/[^\/]+\/src\// &&
          match($0, /^[ \t]*pub (const |unsafe )?fn [A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr($0, RSTART, RLENGTH); sub(/.* /, "", name)
        decl[FILENAME ":" name] = 1
      }
      n = split($0, w, /[^A-Za-z0-9_]+/)
      for (i = 1; i <= n; i++) if (w[i] != "" && !((w[i], FILENAME) in seen)) {
        seen[w[i], FILENAME] = 1; files[w[i]]++
      }
    }
    END {
      for (d in decl) {
        name = d; sub(/.*:/, "", name)
        if (files[name] == 1 && !(d in allowed)) print d
      }
    }' | sort | { ! grep . ; }
