#!/bin/sh
# One answer whatever the cache says.
#
# Usage: cache_invariance.sh <mixyc-binary>
#
# For every corpus case and output mode (text, --explain, SARIF), mixyc
# must print byte-identical stdout and stderr, with the same exit code,
# when run with no cache, cold with --cache-dir --incremental, and warm
# against the directory the cold run wrote. A second cold run into a
# fresh directory must write a byte-identical block store.
set -u
mixyc=$1
d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
fail=0

run() { # run <tag> <args...>: captures stdout, stderr and exit under <tag>
  tag=$1
  shift
  "$mixyc" "$@" >"$d/$tag.out" 2>"$d/$tag.err"
  echo $? >"$d/$tag.exit"
}

same() { # same <ref-tag> <tag>
  for part in out err exit; do
    if ! cmp -s "$d/$1.$part" "$d/$2.$part"; then
      echo "FAIL: $2.$part differs from $1.$part"
      diff "$d/$1.$part" "$d/$2.$part" | head -20
      fail=1
    fi
  done
}

for case in vsftpd case1 case2 case3 case4; do
  for mode in text explain sarif; do
    case $mode in
    text) flags= ;;
    explain) flags=--explain ;;
    sarif) flags=--format=sarif ;;
    esac
    t=$case-$mode
    # $flags is empty or one word, so leaving it unquoted is safe.
    run "$t-nocache" $flags "@$case"
    run "$t-cold" $flags --cache-dir="$d/$t-a" --incremental "@$case"
    cp "$d/$t-a/blocks.mixcache" "$d/$t-a.blocks"
    run "$t-warm" $flags --cache-dir="$d/$t-a" --incremental "@$case"
    run "$t-cold2" $flags --cache-dir="$d/$t-b" --incremental "@$case"
    same "$t-nocache" "$t-cold"
    same "$t-nocache" "$t-warm"
    same "$t-nocache" "$t-cold2"
    if ! cmp -s "$d/$t-a.blocks" "$d/$t-b/blocks.mixcache"; then
      echo "FAIL: $t: two cold runs wrote different blocks.mixcache bytes"
      fail=1
    fi
  done
done
exit $fail
