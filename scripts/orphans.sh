#!/usr/bin/env bash
# Orphan check: every `pub` / `pub(crate)` fn, const, static, struct,
# enum, trait or type declared in the non-test part of crates/*/src and
# src (files cut at their first top-level #[cfg(test)], as scripts/loc.sh
# cuts them) must be named by something besides its own unit tests.
#
# An item is reported when no other .rs file under crates/, src/, tests/,
# examples/, benchmark/src or benchmark/tests names it as a word, and no
# other non-test line of its own file does. Comments are stripped first,
# so a mention in a doc comment is not a use; string literals are kept.
# A `pub use` re-export is not a use either.
# Names listed in scripts/orphans.allow (one a line, each with its
# reason) are exempt. Exits 1 if anything is reported.
#
# The match is by name alone, not by path. A name that collides with
# another identifier anywhere (`Nanos::checked_add` and
# `u64::checked_add`, say) hides an orphan; it never invents one. Enum
# variants, fields and trait-impl methods are not listed.
set -euo pipefail
cd "$(dirname "$0")/.."

allow=scripts/orphans.allow

mapfile -d '' files < <(find crates src tests examples benchmark/src benchmark/tests \
    -name '*.rs' -not -path '*/target/*' -print0 | LC_ALL=C sort -z)

exec awk -v allowfile="$allow" '
    # Strip // and /* */ comments (nested) from $0, keeping string, raw
    # string and char literals intact. `depth`, `instr` and `rawend`
    # carry block-comment and string state across lines.
    function strip(s,    out, i, n, c, c2, m) {
        out = ""; n = length(s); i = 1
        while (i <= n) {
            c = substr(s, i, 1); c2 = substr(s, i, 2)
            if (depth > 0) {
                if (c2 == "/*") { depth++; i += 2 }
                else if (c2 == "*/") { depth--; i += 2 }
                else i++
                continue
            }
            if (instr) {
                if (rawend != "") {
                    if (substr(s, i, length(rawend)) == rawend) {
                        out = out rawend; i += length(rawend); instr = 0; rawend = ""
                    } else { out = out c; i++ }
                } else if (c == "\\") { out = out c2; i += 2 }
                else { out = out c; i++; if (c == "\"") instr = 0 }
                continue
            }
            if (c2 == "//") break
            if (c2 == "/*") { depth = 1; i += 2; continue }
            if (c == "\"") { instr = 1; out = out c; i++; continue }
            if (match(substr(s, i), /^b?r#*"/) && (i == 1 || substr(s, i - 1, 1) !~ /[A-Za-z0-9_]/)) {
                m = substr(s, i, RLENGTH); out = out m; i += RLENGTH
                gsub(/[^#]/, "", m); rawend = "\"" m; instr = 1; continue
            }
            if (c == "\x27" && match(substr(s, i), /^\x27(\\.[^\x27]*|[^\\\x27])\x27/)) {
                out = out substr(s, i, RLENGTH); i += RLENGTH; continue
            }
            out = out c; i++
        }
        return out
    }

    BEGIN {
        while ((getline line < allowfile) > 0) {
            if (line ~ /^[ \t]*(#|$)/) continue
            k = split(line, a, /[ \t]+/)
            if (k < 2) { print allowfile ": no reason given for " a[1] > "/dev/stderr"; bad = 1 }
            allowed[a[1]] = 1
        }
    }

    FNR == 1 {
        depth = 0; instr = 0; rawend = ""; cut = 0; reexport = 0
        src = (FILENAME ~ /^(crates\/[^\/]+\/)?src\//)
    }
    /^#\[cfg\(test\)\]/ { cut = 1 }
    {
        t = strip($0)
        own = src && !cut
        if (own && match(t, /^[ \t]*pub(\(crate\))?[ \t]+((const|async|unsafe)[ \t]+)*(fn|const|static|struct|enum|trait|type)[ \t]+(r#)?[A-Za-z_][A-Za-z0-9_]*/)) {
            d = substr(t, RSTART, RLENGTH); sub(/.*[ \t#]/, "", d)
            ndef++; dname[ndef] = d; dfile[ndef] = FILENAME; dline[ndef] = FNR
        }
        # A `pub use` re-export, to its closing `;`, names what it
        # exports without calling it.
        if (t ~ /^[ \t]*pub(\([a-z]+\))?[ \t]+use[ \t]/) reexport = 1
        if (reexport) {
            if (t ~ /;/) reexport = 0
            next
        }
        gsub(/[^A-Za-z0-9_]+/, " ", t)
        k = split(t, w, " ")
        split("", online)
        for (j = 1; j <= k; j++) {
            x = w[j]
            if (x in online) continue
            online[x] = 1
            if (!((FILENAME, x) in infile)) { infile[FILENAME, x] = 1; nfiles[x]++ }
            if (own) ownlines[FILENAME, x]++
        }
    }

    END {
        for (i = 1; i <= ndef; i++) {
            n = dname[i]; file = dfile[i]
            if (n in allowed) continue
            # The declaring line itself names it once.
            if (nfiles[n] > 1 || ownlines[file, n] > 1) continue
            printf "%s:%d: %s\n", file, dline[i], n
            found++
        }
        if (found) printf "orphans: %d item(s) nothing calls but their own unit tests\n", found > "/dev/stderr"
        exit (found || bad) ? 1 : 0
    }' "${files[@]}"
